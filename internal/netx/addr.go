// Package netx provides compact IPv4 address types tuned for telescope-scale
// traffic analysis: a 4-byte address value and CIDR prefixes.
//
// Darknet analysis joins every flowtuple's source against the inventory, so
// Addr is a plain uint32 wrapper and the hot paths allocate nothing.
package netx

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses dotted-quad notation ("192.0.2.1").
func ParseAddr(s string) (Addr, error) {
	var a uint32
	rest := s
	for i := 0; i < 4; i++ {
		part := rest
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netx: invalid IPv4 address %q", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		}
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netx: invalid IPv4 address %q", s)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String formats the address in dotted-quad notation.
func (a Addr) String() string {
	var buf [15]byte
	b := buf[:0]
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(a>>uint(shift)&0xff), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return string(b)
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	addr Addr
	bits uint8
}

// NewPrefix returns the prefix addr/bits with host bits zeroed.
// It panics if bits > 32.
func NewPrefix(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("netx: invalid prefix length %d", bits))
	}
	return Prefix{addr: addr & mask(bits), bits: uint8(bits)}
}

// ParsePrefix parses CIDR notation ("10.0.0.0/8").
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netx: missing '/' in prefix %q", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netx: invalid prefix length in %q", s)
	}
	return NewPrefix(addr, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << uint(32-bits))
}

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether a is inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a&mask(int(p.bits)) == p.addr
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.addr)
	}
	return q.Contains(p.addr)
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 {
	return 1 << uint(32-p.bits)
}

// Nth returns the n-th address in the prefix (0 is the network address).
// It panics if n is out of range.
func (p Prefix) Nth(n uint64) Addr {
	if n >= p.NumAddrs() {
		panic(fmt.Sprintf("netx: offset %d out of %s", n, p))
	}
	return p.addr + Addr(n)
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// MarshalText encodes the prefix as CIDR notation (JSON, flags, configs).
func (p Prefix) MarshalText() ([]byte, error) {
	return []byte(p.String()), nil
}

// UnmarshalText parses CIDR notation.
func (p *Prefix) UnmarshalText(text []byte) error {
	parsed, err := ParsePrefix(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// MarshalText encodes the address in dotted-quad notation.
func (a Addr) MarshalText() ([]byte, error) {
	return []byte(a.String()), nil
}

// UnmarshalText parses dotted-quad notation.
func (a *Addr) UnmarshalText(text []byte) error {
	parsed, err := ParseAddr(string(text))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}
