package threatintel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"iotscope/internal/jsonl"
	"iotscope/internal/netx"
)

// referenceLoad reads a repository through encoding/json: a Decoder over
// eventJSON, then the conversions Load makes.
func referenceLoad(data []byte) (*Repository, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	repo := NewRepository()
	for {
		var rec eventJSON
		if err := dec.Decode(&rec); err == io.EOF {
			return repo, nil
		} else if err != nil {
			return nil, err
		}
		ip, err := netx.ParseAddr(rec.IP)
		if err != nil {
			return nil, err
		}
		cat, err := ParseCategory(rec.Category)
		if err != nil {
			return nil, err
		}
		repo.Add(Event{ip, cat, rec.Source, rec.Day, rec.Detail})
	}
}

// savedEvents is the writer's output for one event per category over three
// addresses.
func savedEvents(tb testing.TB) string {
	repo := NewRepository()
	for i, c := range Categories() {
		repo.Add(Event{IP: netx.Addr(0x0a000001 + i%3), Category: c, Source: "honeyfeed", Day: i, Detail: strings.Repeat("x", i)})
	}
	var saved bytes.Buffer
	if err := repo.Save(&saved); err != nil {
		tb.Fatal(err)
	}
	return saved.String()
}

func threatSeeds(tb testing.TB) []string {
	line := `{"ip":"1.26.122.60","category":"phishing","source":"honeyfeed","day":15,"detail":"ssh"}`
	with := func(old, new string) string { return strings.Replace(line, old, new, 1) }
	seeds := []string{
		savedEvents(tb), line, "\n" + line + "\n\n" + line + "\n", line + line + "\n", line + " " + line,
		with(`"day":15`, `"day":15,"day":16`),
		with(`"day"`, `"week":1,"day"`),
		with(`"day"`, `"Day"`),
		with(`"ssh"`, `"s\u00dc \" \\ \/ \b \f \n \r \t \u2028 \ud83d\ude00 \ud800"`),
		with(`"ssh"`, "\"s\xff\xc3 é\""),
		with(`"ssh"`, `null`),
		with(`"phishing"`, `"Phishing"`),
	}
	for _, n := range []string{"-0", "01", "+1", "1e3", "1.0", "9223372036854775808", "-9223372036854775808", "null"} {
		seeds = append(seeds, with(`"day":15`, `"day":`+n))
	}
	return seeds
}

// FuzzLoadThreat holds Load to encoding/json: on any input it fails or
// returns exactly the repository the reference decodes.
func FuzzLoadThreat(f *testing.F) {
	for _, s := range threatSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := referenceLoad(data)
		if err != nil {
			t.Fatalf("Load accepts %q; encoding/json: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Load(%q) = %+v, encoding/json gives %+v", data, got.events, want.events)
		}
	})
}

// hardText holds every kind of character json.Encoder escapes or passes
// through: &<> (as \u0026, \u003c, \u003e), quote, backslash, control
// characters, U+2028/U+2029 and non-ASCII text.
const hardText = "a&<>\"\\\x00\x01\t\n\x1f\u2028\u2029 é 日本 😀"

// TestLoadRoundTripEscapes saves events whose strings hold hardText and
// loads them back unchanged; invalid UTF-8 comes back as U+FFFD.
func TestLoadRoundTripEscapes(t *testing.T) {
	events := []Event{
		{IP: netx.MustParseAddr("10.0.0.1"), Category: Spam, Source: hardText, Day: math.MaxInt, Detail: hardText},
		{IP: netx.MustParseAddr("10.0.0.1"), Category: Malware, Source: "bad \xff utf-8", Day: math.MinInt},
		{IP: netx.MustParseAddr("10.0.0.2"), Category: Scanning, Source: "s", Day: 0},
	}
	repo := NewRepository()
	for _, ev := range events {
		repo.Add(ev)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{`\u0026`, `\u003c`, `\u003e`, `\u2028`, `\"`, `\\`, `\u0000`, `\ufffd`} {
		if !strings.Contains(buf.String(), esc) {
			t.Fatalf("saved repository has no %s:\n%s", esc, buf.String())
		}
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events[1].Source = "bad \ufffd utf-8"
	if !reflect.DeepEqual(back.events, events) {
		t.Fatalf("loaded %+v\nwant   %+v", back.events, events)
	}
}

// TestLoadErrorLine damages line k of a saved repository, or makes it
// longer than jsonl.MaxLine and endless, and finds "line k" in the error.
func TestLoadErrorLine(t *testing.T) {
	lines := strings.SplitAfter(savedEvents(t), "\n")
	for _, k := range []int{1, 2, len(lines) - 1} {
		for _, bad := range []string{`{"ip":`, `{"ip":"1.1.1.1","feed":"x"}`, `{"ip":"1.1.1.1","category":"weird"}`, `{"day":1e3}`} {
			in := strings.Join(lines[:k-1], "") + bad + "\n" + strings.Join(lines[k:], "")
			want := fmt.Sprintf("threatintel: line %d: ", k)
			if _, err := Load(strings.NewReader(in)); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%q on line %d: %v", bad, k, err)
			}
		}
		long := io.MultiReader(strings.NewReader(strings.Join(lines[:k-1], "")), neverEnding{})
		want := fmt.Sprintf("threatintel: line %d: longer than %d bytes", k, jsonl.MaxLine)
		if _, err := Load(long); err == nil || err.Error() != want {
			t.Errorf("endless line %d: %v, want %q", k, err, want)
		}
	}
}

// neverEnding is a line that never ends.
type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}
