package devicedb

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

// referenceLoad reads an inventory through encoding/json: a Decoder over
// deviceJSON, then the conversions Load makes.
func referenceLoad(data []byte) (*Inventory, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var devices []Device
	for {
		var rec deviceJSON
		if err := dec.Decode(&rec); err == io.EOF {
			return NewInventory(devices)
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
		typ, err := ParseDeviceType(rec.Type)
		if err != nil {
			return nil, err
		}
		devices = append(devices, Device{rec.ID, ip, cat, typ, rec.Country, rec.ISP, rec.Services})
	}
}

func inventorySeeds(tb testing.TB) []string {
	inv, err := Generate(DefaultGenConfig(20), testRegistry(tb), 3)
	if err != nil {
		tb.Fatal(err)
	}
	var saved bytes.Buffer
	if err := inv.Save(&saved); err != nil {
		tb.Fatal(err)
	}
	line := `{"id":7,"ip":"10.0.0.1","category":"cps","type":"cps","country":"RU","isp":12,"services":["SNC GENe","Modbus TCP"]}`
	with := func(old, new string) string { return strings.Replace(line, old, new, 1) }
	seeds := []string{
		saved.String(), line, "\n" + line + "\n\n" + line + "\n", line + line + "\n", line + " " + line,
		with(`"id":7`, `"id":7,"id":8`),
		with(`"isp"`, `"asn":1,"isp"`),
		with(`"isp"`, `"ISP"`),
		with(`"RU"`, `"R\u00dc \" \\ \/ \b \f \n \r \t \u2028 \ud83d\ude00 \ud800"`),
		with(`"RU"`, "\"R\xff\xc3 é\""),
		with(`"RU"`, `null`),
		with(`["SNC GENe","Modbus TCP"]`, `[]`),
		with(`["SNC GENe","Modbus TCP"]`, `null`),
		with(`"SNC GENe"`, `"SNC\u0020GENe"`),
	}
	for _, n := range []string{"-0", "01", "+1", "1e3", "1.0", "9223372036854775808", "-9223372036854775808", "null"} {
		seeds = append(seeds, with(`"isp":12`, `"isp":`+n))
	}
	return seeds
}

// FuzzLoadInventory holds Load to encoding/json: on any input it fails or
// returns exactly the inventory the reference decodes.
func FuzzLoadInventory(f *testing.F) {
	for _, s := range inventorySeeds(f) {
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
			t.Fatalf("Load(%q) = %+v, encoding/json gives %+v", data, got.All(), want.All())
		}
	})
}

// hardText holds every kind of character json.Encoder escapes or passes
// through: &<> (as \u0026, \u003c, \u003e), quote, backslash, control
// characters, U+2028/U+2029 and non-ASCII text.
const hardText = "a&<>\"\\\x00\x01\t\n\x1f\u2028\u2029 é 日本 😀"

// TestLoadRoundTripEscapes saves devices whose strings hold hardText and
// loads them back unchanged. Invalid UTF-8 comes back as U+FFFD, which is
// what the encoder writes for it and encoding/json decodes.
func TestLoadRoundTripEscapes(t *testing.T) {
	devices := []Device{
		{ID: math.MaxInt, IP: netx.MustParseAddr("10.0.0.1"), Category: CPS, Type: TypeCPS,
			Country: hardText, ISP: math.MinInt, Services: []string{hardText, "Modbus TCP"}},
		{ID: 0, IP: netx.MustParseAddr("10.0.0.2"), Category: Consumer, Type: TypeDVR, Country: "ZZ"},
		{ID: -1, IP: netx.MustParseAddr("10.0.0.3"), Category: Consumer, Type: TypeHub, Country: "bad \xff\xfe utf-8"},
	}
	inv, err := NewInventory(devices)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, esc := range []string{`\u0026`, `\u003c`, `\u003e`, `\u2028`, `\"`, `\\`, `\u0000`, `\ufffd`} {
		if !strings.Contains(buf.String(), esc) {
			t.Fatalf("saved inventory has no %s:\n%s", esc, buf.String())
		}
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	devices[2].Country = "bad \ufffd\ufffd utf-8"
	if !reflect.DeepEqual(back.All(), devices) {
		t.Fatalf("loaded %+v\nwant   %+v", back.All(), devices)
	}
	raw := "{\"id\":1,\"ip\":\"10.0.0.9\",\"category\":\"consumer\",\"type\":\"router\",\"country\":\"\xff\"}\n"
	if inv, err := Load(strings.NewReader(raw)); err != nil || inv.At(0).Country != "\ufffd" {
		t.Fatalf("raw invalid UTF-8: %v, %+v", err, inv)
	}
}

// TestLoadErrorLine damages line k of a saved inventory, or makes it longer
// than jsonl.MaxLine and endless, and finds "line k" in the error.
func TestLoadErrorLine(t *testing.T) {
	inv, err := Generate(DefaultGenConfig(20), testRegistry(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inv.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	for _, k := range []int{1, 2, len(lines) - 1} {
		for _, bad := range []string{`{"id":`, `{"id":1,"owner":"x"}`, `{"id":1,"ip":"300.0.0.1"}`, `{"id":1.5}`} {
			in := strings.Join(lines[:k-1], "") + bad + "\n" + strings.Join(lines[k:], "")
			want := fmt.Sprintf("devicedb: line %d: ", k)
			if _, err := Load(strings.NewReader(in)); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%q on line %d: %v", bad, k, err)
			}
		}
		long := io.MultiReader(strings.NewReader(strings.Join(lines[:k-1], "")), neverEnding{})
		want := fmt.Sprintf("devicedb: line %d: longer than %d bytes", k, jsonl.MaxLine)
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
