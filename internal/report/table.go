// Package report renders the reproduced tables and figures as aligned text
// — the output surface of cmd/iotinfer and the benchmark harness. Tables
// are fixed-width aligned; figure series render as sparklines with
// min/mean/max annotations so spike locations and trends are visible in a
// terminal.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a generic aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Footer  string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Footer != "" {
		b.WriteString(t.Footer)
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Comma formats an integer with thousands separators.
func Comma(v uint64) string {
	s := strconv.FormatUint(v, 10)
	if len(s) <= 3 {
		return s
	}
	var b strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		b.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s[i : i+3])
	}
	return b.String()
}

// CommaInt is Comma for signed values.
func CommaInt(v int) string {
	if v < 0 {
		return "-" + Comma(uint64(-v))
	}
	return Comma(uint64(v))
}

// Pct formats a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// sparkRunes are the sparkline glyph levels.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as one line of block glyphs, downsampling to
// width columns by taking column maxima (so spikes survive downsampling).
func Sparkline(series []float64, width int) string {
	if len(series) == 0 || width <= 0 {
		return ""
	}
	cols := make([]float64, width)
	if len(series) <= width {
		cols = cols[:len(series)]
		copy(cols, series)
	} else {
		per := float64(len(series)) / float64(width)
		for c := 0; c < width; c++ {
			lo := int(float64(c) * per)
			hi := int(float64(c+1) * per)
			if hi > len(series) {
				hi = len(series)
			}
			max := series[lo]
			for _, v := range series[lo:hi] {
				if v > max {
					max = v
				}
			}
			cols[c] = max
		}
	}
	min, max := cols[0], cols[0]
	for _, v := range cols {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range cols {
		level := 0
		if max > min {
			level = int((v - min) / (max - min) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[level])
	}
	return b.String()
}

// Series renders a named series: sparkline plus min/mean/max stats.
func Series(w io.Writer, name string, series []float64, width int) error {
	if len(series) == 0 {
		_, err := fmt.Fprintf(w, "%-24s (empty)\n", name)
		return err
	}
	min, max, sum := series[0], series[0], 0.0
	for _, v := range series {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	_, err := fmt.Fprintf(w, "%-24s %s  min=%s mean=%s max=%s\n",
		name, Sparkline(series, width),
		Comma(uint64(min)), Comma(uint64(sum/float64(len(series)))), Comma(uint64(max)))
	return err
}
