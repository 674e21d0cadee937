// Package threatintel implements the cyber-threat-intelligence repository
// that substitutes for the paper's use of Cymon (Sec. V-A): an IP-indexed
// store of threat events across the paper's six categories, a seeded
// generator that plants flags over the synthetic world, and the Sec. V-A
// investigation that correlates inferred devices against the repository to
// produce Table VI and Fig. 11.
package threatintel

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"iotscope/internal/jsonl"
	"iotscope/internal/netx"
)

// Category is one of the paper's six amalgamated threat categories
// (Table VI). Categories are not mutually exclusive per IP.
type Category uint8

const (
	Scanning Category = iota + 1
	// Miscellaneous covers web/FTP attacks, DNSBL, malicious domains, VoIP.
	Miscellaneous
	BruteForce
	Spam
	Malware
	Phishing
)

// NumCategories is the category count for dense arrays.
const NumCategories = 6

// Categories lists all categories in Table VI order.
func Categories() []Category {
	return []Category{Scanning, Miscellaneous, BruteForce, Spam, Malware, Phishing}
}

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Scanning:
		return "scanning"
	case Miscellaneous:
		return "miscellaneous"
	case BruteForce:
		return "brute-force"
	case Spam:
		return "spam"
	case Malware:
		return "malware"
	case Phishing:
		return "phishing"
	default:
		return fmt.Sprintf("category-%d", uint8(c))
	}
}

// ParseCategory inverts Category.String.
func ParseCategory(s string) (Category, error) {
	for _, c := range Categories() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("threatintel: unknown category %q", s)
}

// Description returns the Table VI row label.
func (c Category) Description() string {
	switch c {
	case Scanning:
		return "Scanning"
	case Miscellaneous:
		return "Miscellaneous (Web/FTP attacks, DNSBL, Malicious domains, VoIP)"
	case BruteForce:
		return "Brute force (SSH)"
	case Spam:
		return "Spam (Mail, IMAP)"
	case Malware:
		return "Malware (Virus, Worm, Bot/Botnet, Trojan)"
	case Phishing:
		return "Phishing"
	default:
		return c.String()
	}
}

// Event is one indexed threat observation.
type Event struct {
	IP       netx.Addr
	Category Category
	Source   string // reporting feed name
	Day      int    // observation day within the intel window
	Detail   string
}

// Repository is an IP-indexed threat-event store.
type Repository struct {
	events []Event
	byIP   map[netx.Addr][]int
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{byIP: make(map[netx.Addr][]int)}
}

// Add indexes one event.
func (r *Repository) Add(ev Event) {
	r.byIP[ev.IP] = append(r.byIP[ev.IP], len(r.events))
	r.events = append(r.events, ev)
}

// Len returns the number of indexed events.
func (r *Repository) Len() int { return len(r.events) }

// NumIPs returns the number of distinct flagged IPs.
func (r *Repository) NumIPs() int { return len(r.byIP) }

// Query returns all events recorded for ip.
func (r *Repository) Query(ip netx.Addr) []Event {
	idx := r.byIP[ip]
	if len(idx) == 0 {
		return nil
	}
	out := make([]Event, len(idx))
	for i, j := range idx {
		out[i] = r.events[j]
	}
	return out
}

// CategoriesOf returns the distinct categories flagged for ip, in Table VI
// order.
func (r *Repository) CategoriesOf(ip netx.Addr) []Category {
	var seen [NumCategories + 1]bool
	for _, j := range r.byIP[ip] {
		seen[r.events[j].Category] = true
	}
	var out []Category
	for _, c := range Categories() {
		if seen[c] {
			out = append(out, c)
		}
	}
	return out
}

// eventJSON is the persistence shape.
type eventJSON struct {
	IP       string `json:"ip"`
	Category string `json:"category"`
	Source   string `json:"source"`
	Day      int    `json:"day"`
	Detail   string `json:"detail,omitempty"`
}

// Save writes the repository as JSON lines, ordered by IP then insertion.
func (r *Repository) Save(w io.Writer) error {
	ips := make([]netx.Addr, 0, len(r.byIP))
	for ip := range r.byIP {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, ip := range ips {
		for _, j := range r.byIP[ip] {
			ev := r.events[j]
			rec := eventJSON{
				IP: ev.IP.String(), Category: ev.Category.String(),
				Source: ev.Source, Day: ev.Day, Detail: ev.Detail,
			}
			if err := enc.Encode(&rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a JSONL repository (package jsonl states the grammar it
// accepts).
func Load(rd io.Reader) (*Repository, error) {
	repo := NewRepository()
	err := jsonl.Each(rd, func(o *jsonl.Object) error {
		var rec eventJSON
		for o.Next() {
			switch string(o.Key()) {
			case "ip":
				rec.IP = o.Text()
			case "category":
				rec.Category = o.Symbol()
			case "source":
				rec.Source = o.Symbol()
			case "day":
				rec.Day = o.Int()
			case "detail":
				rec.Detail = o.Text()
			default:
				return o.UnknownKey()
			}
		}
		if err := o.Err(); err != nil {
			return err
		}
		ip, err := netx.ParseAddr(rec.IP)
		if err != nil {
			return err
		}
		cat, err := ParseCategory(rec.Category)
		if err != nil {
			return err
		}
		repo.Add(Event{IP: ip, Category: cat, Source: rec.Source, Day: rec.Day, Detail: rec.Detail})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("threatintel: %w", err)
	}
	return repo, nil
}

// LoadFile reads a repository from path.
func LoadFile(path string) (*Repository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
