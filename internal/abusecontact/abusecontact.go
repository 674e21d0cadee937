// Package abusecontact resolves the abuse mailbox responsible for an
// operator's address space — the lookup a production notifier performs
// against RDAP, RIPEstat, and Abusix before a complaint can be delivered.
// Our synthetic substrate derives the contact registry deterministically
// from the geo registry's ISP allocations, so the same scenario seed always
// yields the same contacts, and models the real world's patchy coverage:
// not every operator publishes an abuse mailbox, so resolution walks a
// three-tier fallback chain
//
//	primary registry (per-ISP mailbox)
//	→ ASN-level fallback (per-AS mailbox)
//	→ country catch-all (national CERT mailbox, always present)
//
// mirroring the RDAP → RIPEstat → Abusix chain. Each tier can be failed
// with an injected error (tests exercise chain degradation), and the
// resolver keeps per-tier statistics so a pipeline stage can report where
// its contacts actually came from.
package abusecontact

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"iotscope/internal/geo"
	"iotscope/internal/rng"
)

// Tier identifies one level of the fallback chain.
type Tier int

const (
	// TierRegistry is the per-ISP mailbox published in the primary registry.
	TierRegistry Tier = iota
	// TierASN is the AS-level fallback mailbox.
	TierASN
	// TierCountry is the national CERT catch-all.
	TierCountry
	numTiers
)

func (t Tier) String() string {
	switch t {
	case TierRegistry:
		return "registry"
	case TierASN:
		return "asn"
	case TierCountry:
		return "country"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Coverage fractions of the synthetic registry: roughly 1 in 6 operators
// publishes no per-ISP mailbox, and 1 in 10 ASes lacks an AS-level record,
// so a realistic share of resolutions has to fall through the chain. The
// country catch-all is complete by construction.
const (
	registryCoverage = 0.84
	asnCoverage      = 0.90
)

// Contact is a resolved abuse mailbox.
type Contact struct {
	Email   string `json:"email"`
	Tier    Tier   `json:"-"`
	Source  string `json:"source"` // Tier.String(), kept denormalized for JSON
	ISP     string `json:"isp"`
	ASN     uint32 `json:"asn"`
	Country string `json:"country"`
}

// Registry is the deterministic contact database derived from a geo
// registry. It is immutable after Derive and safe for concurrent readers.
type Registry struct {
	primary map[int]string    // ISP index → mailbox (holes modeled)
	byASN   map[uint32]string // ASN → mailbox (holes modeled)
	catchal map[string]string // country code → CERT mailbox (complete)
	isps    []geo.ISP
}

// Derive builds the contact registry for the geo registry's allocations.
// The same (registry, seed) pair always yields the same contacts: each
// ISP's coverage is drawn from a per-ISP substream, so the outcome for
// operator i never depends on how many operators precede it.
func Derive(g *geo.Registry, seed uint64) *Registry {
	r := rng.New(seed).Derive("abusecontact")
	reg := &Registry{
		primary: make(map[int]string),
		byASN:   make(map[uint32]string),
		catchal: make(map[string]string),
		isps:    append([]geo.ISP(nil), g.ISPs...),
	}
	for i, isp := range reg.isps {
		s := r.DeriveN("isp", uint64(i))
		if s.Bool(registryCoverage) {
			reg.primary[i] = "abuse@" + slug(isp.Name) + ".example.net"
		}
		if s.Bool(asnCoverage) {
			reg.byASN[isp.ASN] = fmt.Sprintf("abuse@as%d.example.net", isp.ASN)
		}
	}
	for _, c := range g.Countries {
		reg.catchal[c.Code] = "abuse@cert-" + strings.ToLower(c.Code) + ".example.org"
	}
	return reg
}

// slug folds an ISP display name into a mailbox-safe host label.
func slug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// ErrUnknownISP marks a resolution against an operator index outside the
// registry — a caller wiring error, never retryable.
var ErrUnknownISP = errors.New("abusecontact: unknown ISP index")

// ErrUnresolved marks a resolution in which no tier produced a contact.
// Whether it is worth retrying depends on why: isRetryable distinguishes
// tier lookups that errored (transient backend trouble) from a chain that
// genuinely has no record.
var ErrUnresolved = errors.New("abusecontact: no tier resolved a contact")

// retryableErr wraps ErrUnresolved when at least one tier failed with an
// injected/transient error rather than a clean miss.
type retryableErr struct{ err error }

func (e retryableErr) Error() string { return e.err.Error() }
func (e retryableErr) Unwrap() error { return e.err }

// isRetryable reports whether a Resolve failure may succeed on a later
// attempt: at least one tier errored instead of cleanly missing.
func isRetryable(err error) bool {
	var r retryableErr
	return errors.As(err, &r)
}

// TierStats counts one tier's resolution outcomes.
type TierStats struct {
	Queries  int `json:"queries"`
	Resolved int `json:"resolved"`
	Misses   int `json:"misses"`
	Failures int `json:"failures"`
}

// Stats is the per-tier resolution record of one Resolver.
type Stats struct {
	Registry TierStats `json:"registry"`
	ASN      TierStats `json:"asn"`
	Country  TierStats `json:"country"`
	// Unresolved counts resolutions in which every tier missed or failed.
	Unresolved int `json:"unresolved"`
}

func (s *Stats) tier(t Tier) *TierStats {
	switch t {
	case TierRegistry:
		return &s.Registry
	case TierASN:
		return &s.ASN
	default:
		return &s.Country
	}
}

// String renders the stats as a compact one-line summary for stage notes.
func (s Stats) String() string {
	return fmt.Sprintf("registry %d/%d, asn %d/%d, country %d/%d, unresolved %d",
		s.Registry.Resolved, s.Registry.Queries,
		s.ASN.Resolved, s.ASN.Queries,
		s.Country.Resolved, s.Country.Queries, s.Unresolved)
}

// Resolver walks the fallback chain against a registry, counting per-tier
// outcomes. It is safe for concurrent use.
type Resolver struct {
	reg *Registry

	mu     sync.Mutex
	faults [numTiers]error
	stats  Stats
}

// NewResolver returns a resolver over the registry.
func NewResolver(reg *Registry) *Resolver { return &Resolver{reg: reg} }

// FailTier injects err into every lookup against the tier (nil clears the
// fault). This is the chain-degradation test hook: a failed tier counts a
// failure and resolution falls through to the next tier.
func (r *Resolver) FailTier(t Tier, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t >= 0 && t < numTiers {
		r.faults[t] = err
	}
}

// Stats snapshots the per-tier counters.
func (r *Resolver) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Resolve walks the chain for operator isp: the first tier holding a
// contact wins; a tier that misses or fails falls through. When the whole
// chain comes up empty the error is ErrUnresolved, retryable iff some tier
// failed rather than missed.
func (r *Resolver) Resolve(isp int) (Contact, error) {
	if isp < 0 || isp >= len(r.reg.isps) {
		return Contact{}, fmt.Errorf("%w: %d of %d", ErrUnknownISP, isp, len(r.reg.isps))
	}
	meta := r.reg.isps[isp]

	r.mu.Lock()
	defer r.mu.Unlock()
	var tierErrs []error
	for t := TierRegistry; t < numTiers; t++ {
		ts := r.stats.tier(t)
		ts.Queries++
		if err := r.faults[t]; err != nil {
			ts.Failures++
			tierErrs = append(tierErrs, fmt.Errorf("%s: %w", t, err))
			continue
		}
		email, ok := r.lookup(t, isp, meta)
		if !ok {
			ts.Misses++
			continue
		}
		ts.Resolved++
		return Contact{
			Email:   email,
			Tier:    t,
			Source:  t.String(),
			ISP:     meta.Name,
			ASN:     meta.ASN,
			Country: meta.Country,
		}, nil
	}
	r.stats.Unresolved++
	err := fmt.Errorf("%w for %s (AS%d, %s)", ErrUnresolved, meta.Name, meta.ASN, meta.Country)
	if len(tierErrs) > 0 {
		err = retryableErr{fmt.Errorf("%w: %w", err, errors.Join(tierErrs...))}
	}
	return Contact{}, err
}

func (r *Resolver) lookup(t Tier, isp int, meta geo.ISP) (string, bool) {
	switch t {
	case TierRegistry:
		email, ok := r.reg.primary[isp]
		return email, ok
	case TierASN:
		email, ok := r.reg.byASN[meta.ASN]
		return email, ok
	default:
		email, ok := r.reg.catchal[meta.Country]
		return email, ok
	}
}
