package netx

import (
	"testing"
	"testing/quick"

	"iotscope/internal/rng"
)

// Property: Walk visits exactly the stored prefixes, each once, in address
// order, for arbitrary insert sets.
func TestTrieWalkCompleteProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		tr := NewTrie[int]()
		want := make(map[Prefix]int)
		for i := 0; i < int(n)%40+1; i++ {
			p := NewPrefix(Addr(r.Uint32()), r.Intn(33))
			tr.Insert(p, i)
			want[p] = i
		}
		got := make(map[Prefix]int)
		var prev Prefix
		first := true
		ordered := true
		tr.Walk(func(p Prefix, v int) bool {
			got[p] = v
			if !first {
				if prev.Addr() > p.Addr() ||
					(prev.Addr() == p.Addr() && prev.Bits() > p.Bits()) {
					ordered = false
				}
			}
			prev, first = p, false
			return true
		})
		if !ordered || len(got) != len(want) {
			return false
		}
		for p, v := range want {
			if got[p] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after deleting a prefix, Lookup falls back to the next-longest
// covering prefix (or none).
func TestTrieDeleteFallbackProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tr := NewTrie[string]()
		outer := NewPrefix(Addr(r.Uint32()), 8+r.Intn(8))
		innerOff := r.Uint64n(outer.NumAddrs())
		inner := NewPrefix(outer.Nth(innerOff), outer.Bits()+4+r.Intn(8))
		tr.Insert(outer, "outer")
		tr.Insert(inner, "inner")

		probe := inner.Nth(r.Uint64n(inner.NumAddrs()))
		if v, ok := tr.Lookup(probe); !ok || v != "inner" {
			return false
		}
		tr.Delete(inner)
		v, ok := tr.Lookup(probe)
		return ok && v == "outer"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
