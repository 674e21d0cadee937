// Package jsonl reads the dataset's JSON-lines tables — the device
// inventory, the threat events and the malware catalog — without
// reflection. Each line holds one flat object whose values are strings,
// integers or arrays of strings, and a table's loader walks the keys of
// each object and takes the values it knows:
//
//	err := jsonl.Each(r, func(o *jsonl.Object) error {
//		for o.Next() {
//			switch string(o.Key()) {
//			case "id":
//				id = o.Int()
//			default:
//				return o.UnknownKey()
//			}
//		}
//		return o.Err()
//	})
//
// Everything Each accepts, encoding/json's Decoder accepts too, with equal
// values:
//   - A string with no backslash and no byte ≥ 0x80 is its bytes; any other
//     string is handed whole to json.Unmarshal, so escapes and invalid UTF-8
//     decode exactly as they do there.
//   - An integer follows the JSON integer grammar and must fit in an int.
//   - Blank lines are skipped, whitespace between tokens is allowed, and a
//     key that repeats takes its last value.
//
// It rejects shapes the table writers never produce that encoding/json
// would take: null, a key the loader does not know or one differing from it
// only in case, a line holding anything after its object (a second object,
// say) or an object continued on the next line, and a line longer than
// MaxLine bytes.
package jsonl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// MaxLine bounds a line, its newline excluded. A longer line is rejected by
// its number once MaxLine bytes of it have been read, so a hostile table
// costs at most that much memory per line.
const MaxLine = 64 << 10

// maxSymbols bounds the strings Symbol shares across one read, so a table
// with no small vocabulary costs no more than one without sharing.
const maxSymbols = 4096

// errUnfinished is a loader's bug: fn returned before the closing brace.
var errUnfinished = errors.New("jsonl: object not read to its end")

// Each calls fn with each non-blank line of r, as an Object positioned
// before its opening brace. An error from reading r, from fn or from the
// object fn left unfinished stops the read and is returned as
// "line N: <err>", N counting every line from 1.
func Each(r io.Reader, fn func(*Object) error) error {
	br := bufio.NewReaderSize(r, MaxLine+1)
	o := &Object{symbols: make(map[string]string)}
	for line := 1; ; line++ {
		b, err := br.ReadSlice('\n')
		switch {
		case err == bufio.ErrBufferFull:
			return fmt.Errorf("line %d: longer than %d bytes", line, MaxLine)
		case err != nil && err != io.EOF:
			return fmt.Errorf("line %d: %w", line, err)
		}
		o.b, o.i, o.key, o.err, o.open, o.done = b, 0, nil, nil, false, false
		if o.ws(); o.i < len(b) {
			ferr := fn(o)
			if ferr == nil {
				ferr = o.err
			}
			if ferr == nil && !o.done {
				ferr = errUnfinished
			}
			if ferr != nil {
				return fmt.Errorf("line %d: %w", line, ferr)
			}
		}
		if err == io.EOF {
			return nil
		}
	}
}

// Object is one line's object, read key by key. Its methods set a sticky
// error on malformed input and then return zero values; Next returns false
// once one is set, and Err reports it.
type Object struct {
	b          []byte // the line, valid until fn returns
	i          int    // read position in b
	key        []byte
	err        error
	open, done bool // past the opening brace; past the closing one
	symbols    map[string]string
}

// Next moves to the object's next key and reports whether there is one. At
// the closing brace, which only whitespace may follow on the line, and on
// any error it returns false. Each key's value must be read, by the method
// for its type, before the next call.
func (o *Object) Next() bool {
	if o.err != nil || o.done {
		return false
	}
	o.ws()
	if !o.open {
		if !o.eat('{') {
			return o.fail(o.unexpected("an object"))
		}
		o.open = true
		o.ws()
		if o.eat('}') {
			return o.end()
		}
	} else {
		if o.eat('}') {
			return o.end()
		}
		if !o.eat(',') {
			return o.fail(o.unexpected("',' or '}'"))
		}
		o.ws()
	}
	o.key = nil
	key, ok := o.str("a key")
	if !ok {
		return false
	}
	o.ws()
	if !o.eat(':') {
		return o.fail(o.unexpected("':'"))
	}
	o.ws()
	o.key = key
	return true
}

// Key returns the current key. The bytes are valid until the next call to
// Next, so switch on string(o.Key()) rather than keep them.
func (o *Object) Key() []byte { return o.key }

// Err returns the first error met reading the object, or nil.
func (o *Object) Err() error { return o.err }

// UnknownKey is the error for a key the loader does not read.
func (o *Object) UnknownKey() error { return fmt.Errorf("unknown key %q", o.key) }

// Text reads the current value as a string.
func (o *Object) Text() string {
	s, _ := o.str("a string")
	return string(s)
}

// Symbol reads the current value as a string drawn from a small vocabulary
// (a country, a feed, an enum's name): equal values share one copy for the
// rest of the read.
func (o *Object) Symbol() string {
	s, ok := o.str("a string")
	if !ok {
		return ""
	}
	if v, ok := o.symbols[string(s)]; ok {
		return v
	}
	v := string(s)
	if len(o.symbols) < maxSymbols {
		o.symbols[v] = v
	}
	return v
}

// Symbols reads the current value as an array of strings, each shared as
// Symbol shares it. An empty array is an empty, non-nil slice, as
// encoding/json decodes it.
func (o *Object) Symbols() []string {
	if !o.eat('[') {
		o.fail(o.unexpected("an array"))
		return nil
	}
	out := []string{}
	o.ws()
	if o.eat(']') {
		return out
	}
	for {
		s := o.Symbol()
		if o.err != nil {
			return nil
		}
		out = append(out, s)
		o.ws()
		if o.eat(']') {
			return out
		}
		if !o.eat(',') {
			o.fail(o.unexpected("',' or ']'"))
			return nil
		}
		o.ws()
	}
}

// Int reads the current value as an integer: an optional minus, then 0 or
// a digit string without a leading zero, within the range of int.
func (o *Object) Int() int {
	if o.err != nil {
		return 0
	}
	b, i := o.b, o.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (limit-d)/10 {
			o.fail(fmt.Errorf("key %q: integer out of range", o.key))
			return 0
		}
		u = u*10 + d
	}
	switch {
	case i == start:
		o.fail(o.unexpected("an integer"))
		return 0
	case b[start] == '0' && i-start > 1:
		o.fail(fmt.Errorf("key %q: integer with a leading zero", o.key))
		return 0
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		o.fail(fmt.Errorf("key %q: number is not an integer", o.key))
		return 0
	}
	o.i = i
	if neg {
		return -int(u) // for the magnitude of math.MinInt, int(u) wraps to it and so does the negation
	}
	return int(u)
}

// str reads a JSON string at the read position. The result aliases the line
// unless the string holds a backslash or a byte ≥ 0x80, which json.Unmarshal
// decodes. what names the expected token in the error.
func (o *Object) str(what string) ([]byte, bool) {
	if o.err != nil {
		return nil, false
	}
	if !o.eat('"') {
		return nil, o.fail(o.unexpected(what))
	}
	b, start, plain := o.b, o.i, true
	for i := start; i < len(b); i++ {
		c := b[i]
		if textByte[c] {
			continue
		}
		switch {
		case c == '"':
			o.i = i + 1
			if plain {
				return b[start:i], true
			}
			var s string
			if err := json.Unmarshal(b[start-1:i+1], &s); err != nil {
				return nil, o.fail(fmt.Errorf("%s: %w", what, err))
			}
			return []byte(s), true
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot end the string
		case c < 0x20:
			return nil, o.fail(fmt.Errorf("%s: control character %#02x in string", what, c))
		case c >= 0x80:
			plain = false
		}
	}
	return nil, o.fail(fmt.Errorf("%s: string not closed on its line", what))
}

// textByte marks the bytes a string holds as themselves: printable ASCII
// but the quote and the backslash.
var textByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// end consumes the rest of the line after the closing brace.
func (o *Object) end() bool {
	o.done = true
	if o.ws(); o.i < len(o.b) {
		return o.fail(fmt.Errorf("unexpected %q after the object", o.b[o.i]))
	}
	return false
}

// ws skips JSON whitespace, the line's newline included.
func (o *Object) ws() {
	for o.i < len(o.b) {
		switch o.b[o.i] {
		case ' ', '\t', '\r', '\n':
			o.i++
		default:
			return
		}
	}
}

func (o *Object) eat(c byte) bool {
	if o.i < len(o.b) && o.b[o.i] == c {
		o.i++
		return true
	}
	return false
}

func (o *Object) unexpected(want string) error {
	got := "end of line"
	if o.i < len(o.b) && o.b[o.i] != '\n' {
		got = fmt.Sprintf("%q", o.b[o.i])
	}
	if o.key != nil {
		return fmt.Errorf("key %q: want %s, got %s", o.key, want, got)
	}
	return fmt.Errorf("want %s, got %s", want, got)
}

// fail records err unless an error is already set, and returns false.
func (o *Object) fail(err error) bool {
	if o.err == nil {
		o.err = err
	}
	return false
}
