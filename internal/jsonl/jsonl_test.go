package jsonl

import (
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// row is the test table's shape: one field of each kind the reader reads.
type row struct {
	S string   `json:"s"`
	N int      `json:"n"`
	A []string `json:"a"`
}

func readRows(in string) ([]row, error) {
	var rows []row
	err := Each(strings.NewReader(in), func(o *Object) error {
		var r row
		for o.Next() {
			switch string(o.Key()) {
			case "s":
				r.S = o.Text()
			case "n":
				r.N = o.Int()
			case "a":
				r.A = o.Symbols()
			default:
				return o.UnknownKey()
			}
		}
		if err := o.Err(); err != nil {
			return err
		}
		rows = append(rows, r)
		return nil
	})
	return rows, err
}

func decodeRows(in string) ([]row, error) {
	var rows []row
	dec := json.NewDecoder(strings.NewReader(in))
	for {
		var r row
		if err := dec.Decode(&r); err == io.EOF {
			return rows, nil
		} else if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
}

// TestEachAgreesWithEncodingJSON reads each input both ways. Where the
// reader accepts, encoding/json accepts with equal rows; accept says which
// the reader must do.
func TestEachAgreesWithEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		in     string
		accept bool
	}{
		{``, true},
		{"\n\n \r\n", true},
		{`{}`, true},
		{`{"s":"x","n":7,"a":["p","q"]}` + "\n" + `{"s":"y"}`, true},
		{` { "s" : "x" , "n" : -3 , "a" : [ "p" , "q" ] } ` + "\r\n", true},
		{`{"a":[]}`, true},
		{`{"a":["p"],"a":[]}`, true},
		{`{"n":1,"n":2}`, true},
		{`{"n":-0}`, true},
		{`{"n":9223372036854775807}`, true},
		{`{"n":-9223372036854775808}`, true},
		{`{"s":"&<>\"\\\/\b\f\n\r\t "}`, true},
		{`{"s":"😀 \ud800 é 日本"}`, true},
		{"{\"s\":\"\xff\xfe\"}", true},
		{"{\"s\":\"\x7f\"}", true},
		{`{"\u0073":"escaped key"}`, true},
		{`{"n":9223372036854775808}`, false},
		{`{"n":-9223372036854775809}`, false},
		{`{"n":01}`, false},
		{`{"n":+1}`, false},
		{`{"n":1e3}`, false},
		{`{"n":1.0}`, false},
		{`{"n":-}`, false},
		{`{"n":"1"}`, false},
		{`{"s":null}`, false},
		{`{"a":null}`, false},
		{`{"a":["p",null]}`, false},
		{`{"a":["p",]}`, false},
		{`{"x":1}`, false},
		{`{"S":"case"}`, false},
		{`{"s":"x"}{"s":"y"}`, false},
		{`{"s":"x"} junk`, false},
		{"{\"s\":\"x\",\n\"n\":1}", false},
		{`{"s":"x",}`, false},
		{`{"s" "x"}`, false},
		{`{"s":"x`, false},
		{"{\"s\":\"a\tb\"}", false},
		{`{"s":"\x"}`, false},
		{`[]`, false},
		{`null`, false},
		{`"s"`, false},
		{"\xef\xbb\xbf{}", false},
	} {
		got, err := readRows(tc.in)
		if (err == nil) != tc.accept {
			t.Errorf("%q: err %v, want accepted %v", tc.in, err, tc.accept)
			continue
		}
		if err != nil {
			continue
		}
		want, err := decodeRows(tc.in)
		if err != nil {
			t.Errorf("%q: accepted, but encoding/json rejects it: %v", tc.in, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %#v, encoding/json gives %#v", tc.in, got, want)
		}
	}
}

// TestEachErrorLine damages one line of three and finds its number in the
// error, counting blank lines.
func TestEachErrorLine(t *testing.T) {
	good := `{"s":"x","n":1}`
	for _, bad := range []string{`{"s":`, `{"q":1}`, `{"s":"x"}{}`, `{"n":1.5}`} {
		in := good + "\n\n" + bad + "\n" + good + "\n"
		if _, err := readRows(in); err == nil || !strings.HasPrefix(err.Error(), "line 3: ") {
			t.Errorf("%q on line 3: %v", bad, err)
		}
	}
}

// TestEachLineBound reads lines at MaxLine, which pass with or without a
// newline, and one byte over, which fails by its number.
func TestEachLineBound(t *testing.T) {
	line := func(n int) string {
		pre := `{"s":"`
		return pre + strings.Repeat("a", n-len(pre)-2) + `"}`
	}
	for _, tc := range []struct {
		in   string
		fail bool
	}{
		{line(MaxLine), false},
		{line(MaxLine) + "\n", false},
		{line(MaxLine) + "\r\n", true},
		{line(MaxLine + 1), true},
		{"{}\n" + line(MaxLine+1) + "\n{}\n", true},
	} {
		_, err := readRows(tc.in)
		if !tc.fail && err != nil {
			t.Errorf("%d bytes: %v", len(tc.in), err)
		}
		if tc.fail && (err == nil || !strings.Contains(err.Error(), "longer than")) {
			t.Errorf("%d bytes: %v, want the line rejected as too long", len(tc.in), err)
		}
	}
}

// endless is a reader whose one line never ends.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	e.n += len(p)
	return len(p), nil
}

// TestEachEndlessLine stops an endless second line by its number, having
// read no more than one buffer of it.
func TestEachEndlessLine(t *testing.T) {
	src := &endless{}
	err := Each(io.MultiReader(strings.NewReader("{}\n{\"s\":\""), src), func(o *Object) error {
		for o.Next() {
			_ = o.Text()
		}
		return o.Err()
	})
	if err == nil || !strings.HasPrefix(err.Error(), "line 2: longer than") {
		t.Fatalf("got %v, want line 2 rejected as too long", err)
	}
	if src.n > MaxLine+1 {
		t.Errorf("read %d bytes of the endless line, want at most %d", src.n, MaxLine+1)
	}
}

// TestEachUnfinishedObject holds Each to the object's end when fn returns
// early without an error.
func TestEachUnfinishedObject(t *testing.T) {
	err := Each(strings.NewReader(`{"s":"x"}`), func(o *Object) error { return nil })
	if !errors.Is(err, errUnfinished) {
		t.Errorf("got %v, want errUnfinished", err)
	}
	err = Each(strings.NewReader(`{"s":"x"} {}`), func(o *Object) error {
		for o.Next() {
			_ = o.Text()
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "after the object") {
		t.Errorf("got %v, want the bytes after the object rejected", err)
	}
}
