package wgen

import (
	"fmt"
	"math"
	"sort"

	"iotscope/internal/devicedb"
	"iotscope/internal/geo"
	"iotscope/internal/rng"
)

// GroundTruth records what the generator planted, for validation only —
// the analysis pipeline never reads it.
type GroundTruth struct {
	Compromised  []int // device IDs, ascending
	Victims      []int
	TCPScanners  []int
	UDPProbers   []int
	ICMPScanners []int
	OnsetHour    map[int]int
	EventVictims map[string]int // DoS event name -> device ID
	// Cohorts maps each extension actor kind (mirai-wave, stealth-scan,
	// ...) to its enrolled device IDs, ascending — the truth surface the
	// scenario-library e2e fixtures assert against.
	Cohorts map[string][]int
	// ActivityWeight is each device's relative traffic intensity, used by
	// the threat-intelligence and malware-database generators to bias
	// flags toward loud devices the way real intel sources do.
	ActivityWeight map[int]float64
}

// Generator owns the synthetic world: registry, inventory, and the actor
// population with its behaviours.
type Generator struct {
	sc  Scenario
	reg *geo.Registry
	inv *devicedb.Inventory

	actors      []*actor
	byID        map[int]*actor
	bgPool      []uint32 // background source addresses (non-inventory)
	diurnalPool []uint32 // smart-home diurnal sources (non-inventory)
	truth       GroundTruth
	root        *rng.Source
	haveGen     bool
}

// actor is one compromised device with its assigned behaviours.
type actor struct {
	id        int
	dev       devicedb.Device
	onset     int
	dayProb   float64
	hourDuty  float64
	rateMult  float64
	tcpSvcs   []svcMembership
	tcpRandom float64 // mean random-port scan pkts per active hour
	udpGroups []groupMembership
	udpTail   float64 // mean tail-port UDP pkts per active hour
	icmpRate  float64
	otherRate float64
	events    []event // duty-free emissions, in emission order
}

type svcMembership struct {
	svc  int // index into Scenario.TCPScan.Services
	rate float64
}

type groupMembership struct {
	port uint16
	rate float64
}

// New builds the world for a scenario: geo registry, inventory, compromised
// selection, behaviour assignment, and scripted events, all deterministic
// from sc.Seed.
func New(sc Scenario) (*Generator, error) {
	if sc.Scale <= 0 || sc.Scale > 1 {
		return nil, fmt.Errorf("wgen: scale %v out of (0, 1]", sc.Scale)
	}
	if sc.Hours <= 0 {
		return nil, fmt.Errorf("wgen: hours %d must be positive", sc.Hours)
	}
	reg, err := geo.Build(sc.Geo, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("wgen: build registry: %w", err)
	}
	invSize := scaleCount(sc.InventorySize, sc.Scale)
	inv, err := devicedb.Generate(devicedb.DefaultGenConfig(invSize), reg, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("wgen: build inventory: %w", err)
	}
	g := &Generator{
		sc:   sc,
		reg:  reg,
		inv:  inv,
		byID: make(map[int]*actor),
		root: rng.New(sc.Seed).Derive("wgen"),
	}
	if err := g.selectCompromised(); err != nil {
		return nil, err
	}
	g.assignBehaviours()
	g.assignOnsets()
	// Scripted events may pull actor onsets earlier; baseline victim
	// schedules are laid out afterwards against final onsets.
	if err := g.assignScripted(); err != nil {
		return nil, err
	}
	g.assignVictims(g.root.Derive("victims"))
	g.ensureAllEmit()
	g.bgPool = g.sourcePool(g.root.Derive("background"), sc.Background.Sources)
	// Extension cohorts join last, from freshly-labelled streams, so the
	// baseline population above is identical with or without them. Each
	// enrols from the devices the ones before it left free, so this order
	// is part of every dataset's bytes.
	for _, x := range []extension{sc.MiraiWave, sc.UDPAmplification, sc.StealthScan, sc.CPSCampaign, sc.DiurnalBackground} {
		if err := x.enrol(g); err != nil {
			return nil, err
		}
	}
	g.finalizeTruth()
	g.haveGen = true
	return g, nil
}

// Registry exposes the synthetic Internet registry.
func (g *Generator) Registry() *geo.Registry { return g.reg }

// Inventory exposes the device inventory.
func (g *Generator) Inventory() *devicedb.Inventory { return g.inv }

// Truth exposes the planted ground truth (for validation only).
func (g *Generator) Truth() GroundTruth { return g.truth }

// scaleCount scales a full-scale population, keeping non-zero populations
// alive at small scales.
func scaleCount(n int, scale float64) int {
	if n <= 0 {
		return 0
	}
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// activeFraction is the expected fraction of post-onset hours an actor is
// active, used to convert aggregate hourly targets into per-device rates.
func (g *Generator) activeFraction() float64 {
	meanDuty := (g.sc.HourDutyMin + g.sc.HourDutyMax) / 2
	return g.sc.DayActiveProb * meanDuty
}

// selectCompromised picks the compromised device population, stratified by
// country (Sec. III-B) and consumer type (Fig. 3).
func (g *Generator) selectCompromised() error {
	sc := g.sc
	r := g.root.Derive("select")
	nComp := scaleCount(sc.CompromisedTotal, sc.Scale)
	nCons := int(float64(nComp)*sc.ConsumerCompromisedShare + 0.5)
	nCPS := nComp - nCons

	// Bucket inventory by (category, country, type), shuffled.
	consBuckets := make(map[string]map[devicedb.DeviceType][]int)
	cpsBuckets := make(map[string][]int)
	for i, d := range g.inv.All() {
		if d.Category == devicedb.Consumer {
			m := consBuckets[d.Country]
			if m == nil {
				m = make(map[devicedb.DeviceType][]int)
				consBuckets[d.Country] = m
			}
			m[d.Type] = append(m[d.Type], i)
		} else {
			cpsBuckets[d.Country] = append(cpsBuckets[d.Country], i)
		}
	}
	// Shuffle each bucket with its own derived stream so results do not
	// depend on map iteration order.
	for code, m := range consBuckets {
		for typ, list := range m {
			shuffleInts(r.Derive("bucket", code, typ.String()), list)
		}
	}
	for code, list := range cpsBuckets {
		shuffleInts(r.Derive("bucket", code), list)
	}

	taken := make(map[int]bool, nComp)

	// Consumer selection: country apportionment, then type apportionment.
	codes, shares := expandShares(sc.ConsumerCountryShares, g.reg)
	counts := devicedb.Apportion(nCons, shares)
	typeWeights := make([]float64, len(sc.ConsumerTypeShares))
	for i, tw := range sc.ConsumerTypeShares {
		typeWeights[i] = tw.Weight
	}
	var consumerLeftover int
	for ci, code := range codes {
		need := counts[ci]
		if need == 0 {
			continue
		}
		perType := devicedb.Apportion(need, typeWeights)
		for ti, tn := range perType {
			typ := sc.ConsumerTypeShares[ti].Type
			got := takeFrom(consBuckets[code][typ], taken, tn)
			missing := tn - len(got)
			g.addCompromised(got)
			if missing > 0 {
				// Fallback 1: same country, any type (fixed type order so
				// the walk is deterministic).
				for _, ft := range devicedb.ConsumerTypes() {
					if missing == 0 {
						break
					}
					extra := takeFrom(consBuckets[code][ft], taken, missing)
					g.addCompromised(extra)
					missing -= len(extra)
				}
			}
			consumerLeftover += missing
		}
	}
	// Fallback 2: any country.
	if consumerLeftover > 0 {
		g.fillAnywhere(r, devicedb.Consumer, taken, consumerLeftover)
	}

	// CPS selection.
	codes, shares = expandShares(sc.CPSCountryShares, g.reg)
	counts = devicedb.Apportion(nCPS, shares)
	var cpsLeftover int
	for ci, code := range codes {
		need := counts[ci]
		if need == 0 {
			continue
		}
		got := takeFrom(cpsBuckets[code], taken, need)
		g.addCompromised(got)
		cpsLeftover += need - len(got)
	}
	if cpsLeftover > 0 {
		g.fillAnywhere(r, devicedb.CPS, taken, cpsLeftover)
	}

	if len(g.actors) == 0 {
		return fmt.Errorf("wgen: no compromised devices selected")
	}

	// Per-actor rate profile. Heavy emitters are persistently active (a
	// Mirai-style bot scans around the clock); without this coupling a
	// single big-multiplier device would hold most of a small group's
	// packet budget while being active only a handful of random hours,
	// making aggregate realm splits swing wildly between seeds.
	or := g.root.Derive("profile")
	for _, a := range g.actors {
		a.hourDuty = sc.HourDutyMin + or.Float64()*(sc.HourDutyMax-sc.HourDutyMin)
		a.dayProb = sc.DayActiveProb
		sigma := sc.RateSpreadSigma
		a.rateMult = or.LogNormal(-sigma*sigma/2, sigma)
		if a.rateMult > 1 {
			boost := math.Log1p(a.rateMult)
			a.dayProb = math.Min(0.97, a.dayProb+0.25*boost)
			a.hourDuty = math.Min(0.92, a.hourDuty*(1+0.5*boost))
		}
		// The heaviest emitters never pause at all: their hour-to-hour
		// variation comes solely from volume jitter, decoupling hourly scan
		// volume from the fluctuating count of active light devices
		// (Sec. IV-C reports r ~ 0 between the two).
		if a.rateMult > 2.5 {
			a.dayProb = 1
			a.hourDuty = 1
		}
	}
	return nil
}

// assignOnsets places first-appearance hours after behaviours are known.
// TCP scanners all onset during day one — they are 46 % of the population,
// which *is* the paper's day-one discovery cohort (Fig. 2: ~12 K devices on
// day one, ~2.9 K newly discovered per later day) — and keeping the
// scanning population stationary also reproduces the paper's r ~ 0 between
// hourly scanner counts and scan volume. Non-scanners trickle in over the
// remaining days.
func (g *Generator) assignOnsets() {
	sc := g.sc
	or := g.root.Derive("onset")
	day1Hours := 24
	if sc.Hours < 24 {
		day1Hours = sc.Hours
	}
	for _, a := range g.actors {
		// ICMP scanners and the heaviest emitters belong to the same
		// always-running campaigns as the TCP scanners.
		isScanner := len(a.tcpSvcs) > 0 || a.tcpRandom > 0 ||
			a.icmpRate > 0 || a.rateMult > 2.5
		switch {
		case isScanner:
			// Ongoing campaigns predate the capture window: scanners are
			// all visible within the first hours, keeping the hourly
			// scanning-device count stationary (the Fig. 2 curve is daily,
			// so the intra-day-one spread is immaterial).
			a.onset = or.Intn(min(3, day1Hours))
		case sc.Hours <= day1Hours || or.Bool(sc.Day1Fraction):
			a.onset = or.Intn(day1Hours)
		default:
			a.onset = day1Hours + or.Intn(sc.Hours-day1Hours)
		}
	}
}

func (g *Generator) addCompromised(ids []int) {
	for _, id := range ids {
		a := &actor{id: id, dev: g.inv.At(id)}
		g.actors = append(g.actors, a)
		g.byID[id] = a
	}
}

// fillAnywhere tops up the compromised set with any unused device of the
// category.
func (g *Generator) fillAnywhere(r *rng.Source, cat devicedb.Category, taken map[int]bool, need int) {
	if need <= 0 {
		return
	}
	var pool []int
	for i, d := range g.inv.All() {
		if d.Category == cat && !taken[i] {
			pool = append(pool, i)
		}
	}
	shuffleInts(r, pool)
	if need > len(pool) {
		need = len(pool)
	}
	got := takeFrom(pool[:need], taken, need)
	g.addCompromised(got)
}

// takeFrom removes up to n untaken IDs from list, marking them taken.
func takeFrom(list []int, taken map[int]bool, n int) []int {
	var out []int
	for _, id := range list {
		if len(out) == n {
			break
		}
		if taken[id] {
			continue
		}
		taken[id] = true
		out = append(out, id)
	}
	return out
}

func shuffleInts(r *rng.Source, xs []int) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// expandShares resolves configured country shares against the registry,
// spreading the residual uniformly over unlisted countries.
func expandShares(listed []Share, reg *geo.Registry) (codes []string, weights []float64) {
	m := make(map[string]float64, len(listed))
	total := 0.0
	for _, s := range listed {
		m[s.Code] = s.Share
		total += s.Share
	}
	residual := 0.0
	if total < 100 {
		residual = 100 - total
	}
	nUnlisted := 0
	for _, c := range reg.Countries {
		if _, ok := m[c.Code]; !ok {
			nUnlisted++
		}
	}
	per := 0.0
	if nUnlisted > 0 {
		per = residual / float64(nUnlisted)
	}
	for _, c := range reg.Countries {
		codes = append(codes, c.Code)
		if w, ok := m[c.Code]; ok {
			weights = append(weights, w)
		} else {
			weights = append(weights, per)
		}
	}
	return codes, weights
}

// assignBehaviours distributes scanning, probing, ICMP, backscatter, and
// noise roles over the compromised population, with per-device rates
// derived from the scenario's full-scale hourly targets.
func (g *Generator) assignBehaviours() {
	sc := g.sc
	r := g.root.Derive("behaviours")

	consumer, cps := splitRealm(g.actors)

	// --- TCP scanners (Sec. IV-C / Table V).
	nScan := scaleCount(sc.TCPScan.TotalScanners, sc.Scale)
	nScanCons := int(float64(nScan)*sc.TCPScan.ConsumerFrac + 0.5)
	nScanCPS := nScan - nScanCons
	scanCons := samplePool(r, consumer, nScanCons)
	scanCPS := samplePool(r, cps, nScanCPS)

	totalScanPkts := (sc.TCPScan.HourlyPacketsConsumer + sc.TCPScan.HourlyPacketsCPS) * sc.Scale
	for si, svc := range sc.TCPScan.Services {
		if svc.PacketShare <= 0 {
			continue
		}
		svcPkts := svc.PacketShare / 100 * totalScanPkts
		join := func(a *actor, rate float64) { a.tcpSvcs = append(a.tcpSvcs, svcMembership{si, rate}) }
		g.spread(r, scanCons, scaleCount(svc.ConsumerDevices, sc.Scale), svcPkts*svc.ConsumerPacketFrac, join)
		g.spread(r, scanCPS, scaleCount(svc.CPSDevices, sc.Scale), svcPkts*(1-svc.ConsumerPacketFrac), join)
	}
	// Random-port scanning, CPS-heavy (drives Fig. 9's port-width gap).
	tailPkts := sc.TCPScan.RandomPortShare / 100 * totalScanPkts
	setRandom := func(a *actor, rate float64) { a.tcpRandom = rate }
	g.spread(r, scanCPS, len(scanCPS), tailPkts*sc.TCPScan.RandomPortCPSFrac, setRandom)
	g.spread(r, scanCons, len(scanCons), tailPkts*(1-sc.TCPScan.RandomPortCPSFrac), setRandom)

	// --- UDP probers (Sec. IV-A / Table IV).
	nProbe := scaleCount(sc.UDPProbe.TotalProbers, sc.Scale)
	nProbeCons := int(float64(nProbe)*sc.UDPProbe.ConsumerFrac + 0.5)
	probeCons := samplePool(r, consumer, nProbeCons)
	probeCPS := samplePool(r, cps, nProbe-nProbeCons)

	udpTotal := sc.UDPProbe.HourlyPackets * sc.Scale
	groupShareSum := 0.0
	for _, pg := range sc.UDPProbe.PortGroups {
		groupShareSum += pg.PacketShare
	}
	// CPS rates are discounted by the expected burst inflation so CPS
	// bursts do not blow the UDP budget (Validate keeps it >= 1).
	burstE := 1 + sc.UDPProbe.CPSBurstProb*(sc.UDPProbe.CPSBurstFactor-1)
	for _, pg := range sc.UDPProbe.PortGroups {
		pkts := pg.PacketShare / 100 * udpTotal
		members := scaleCount(pg.Devices, sc.Scale)
		// Membership split follows the prober pools (60/40).
		mCons := int(float64(members)*sc.UDPProbe.ConsumerFrac + 0.5)
		g.spread(r, probeCons, mCons, pkts*sc.UDPProbe.ConsumerPacketShare, func(a *actor, rate float64) {
			a.udpGroups = append(a.udpGroups, groupMembership{pg.Port, rate})
		})
		g.spread(r, probeCPS, members-mCons, pkts*(1-sc.UDPProbe.ConsumerPacketShare), func(a *actor, rate float64) {
			a.udpGroups = append(a.udpGroups, groupMembership{pg.Port, rate / burstE})
		})
	}
	tailUDP := (100 - groupShareSum) / 100 * udpTotal
	setTail := func(a *actor, rate float64) { a.udpTail = rate }
	g.spread(r, probeCons, len(probeCons), tailUDP*sc.UDPProbe.ConsumerPacketShare, setTail)
	g.spread(r, probeCPS, len(probeCPS), tailUDP*(1-sc.UDPProbe.ConsumerPacketShare)/burstE, setTail)

	// --- ICMP scanners.
	nICMP := scaleCount(sc.ICMPScan.TotalScanners, sc.Scale)
	nICMPCons := scaleCount(sc.ICMPScan.ConsumerScanners, sc.Scale)
	if nICMPCons > nICMP {
		nICMPCons = nICMP
	}
	icmpCons := samplePool(r, consumer, nICMPCons)
	icmpCPS := samplePool(r, cps, nICMP-nICMPCons)
	icmpTotal := sc.ICMPScan.HourlyPackets * sc.Scale
	setICMP := func(a *actor, rate float64) { a.icmpRate = rate }
	g.spread(r, icmpCons, len(icmpCons), icmpTotal*sc.ICMPScan.ConsumerPacketShare, setICMP)
	g.spread(r, icmpCPS, len(icmpCPS), icmpTotal*(1-sc.ICMPScan.ConsumerPacketShare), setICMP)

	// --- Other-traffic emitters.
	nOther := int(float64(len(g.actors))*sc.Other.EmitterFrac + 0.5)
	otherActors := samplePool(r, g.actors, nOther)
	otherTotal := sc.Other.HourlyPackets * sc.Scale
	oCons, oCPS := splitRealm(otherActors)
	setOther := func(a *actor, rate float64) { a.otherRate = rate }
	g.spread(r, oCPS, len(oCPS), otherTotal*sc.Other.CPSFrac, setOther)
	g.spread(r, oCons, len(oCons), otherTotal*(1-sc.Other.CPSFrac), setOther)
}

// splitRealm partitions actors by realm, keeping their order.
func splitRealm(actors []*actor) (consumer, cps []*actor) {
	for _, a := range actors {
		if a.dev.Category == devicedb.Consumer {
			consumer = append(consumer, a)
		} else {
			cps = append(cps, a)
		}
	}
	return consumer, cps
}

// samplePool draws up to n distinct actors from pool.
func samplePool(r *rng.Source, pool []*actor, n int) []*actor {
	if n >= len(pool) {
		return append([]*actor(nil), pool...)
	}
	if n <= 0 {
		return nil
	}
	idx := r.SampleK(len(pool), n)
	out := make([]*actor, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// actorWeight is the actor's expected per-hour activity contribution: its
// rate multiplier scaled by how often it is active and how much of the
// window follows its onset. Normalizing group budgets by the sum of these
// weights makes every group's expected output match its packet target for
// the *realized* population — at small scales a handful of log-normal
// multiplier or late-onset draws would otherwise swing the Table IV/V
// shares wildly.
func (g *Generator) actorWeight(a *actor) float64 {
	// Onset is deliberately not compensated for: a late-arriving device
	// simply contributes less, as in reality. Heavy devices onset on day
	// one, so group budgets remain nearly exact where it matters.
	return a.rateMult * a.dayProb * a.hourDuty
}

// rateUnit converts a per-hour group packet budget into the rate multiplied
// by each member's rateMult at emission time. The unit is clamped so no
// single member can burst beyond twice the whole group's hourly
// budget — tiny groups with unlucky weight draws degrade gracefully
// (under-deliver) instead of emitting absurd hourly spikes.
func (g *Generator) rateUnit(members []*actor, pkts float64) float64 {
	var wsum, maxMult float64
	for _, a := range members {
		wsum += g.actorWeight(a)
		if a.rateMult > maxMult {
			maxMult = a.rateMult
		}
	}
	if wsum <= 0 {
		return 0
	}
	unit := pkts / wsum
	if maxMult > 0 && unit*maxMult > 2*pkts {
		unit = 2 * pkts / maxMult
	}
	return unit
}

// spread shares a per-hour packet budget among count members sampled from
// pool (all of it, without a draw, when count >= len(pool)), handing each
// the group's rate unit through set. An empty budget samples nothing.
func (g *Generator) spread(r *rng.Source, pool []*actor, count int, pkts float64, set func(*actor, float64)) {
	if pkts <= 0 || count <= 0 || len(pool) == 0 {
		return
	}
	members := samplePool(r, pool, count)
	unit := g.rateUnit(members, pkts)
	for _, a := range members {
		set(a, unit)
	}
}

// victimCPSBias adjusts the CPS fraction of victims per country (Fig. 8a:
// CN and US victims are CPS-heavy, SG and ID consumer-heavy).
var victimCPSBias = map[string]float64{
	"CN": 0.75, "US": 0.65, "SG": 0.15, "ID": 0.15,
}

// assignVictims places the baseline (non-scripted) DoS victims.
func (g *Generator) assignVictims(r *rng.Source) {
	sc := g.sc
	nVict := scaleCount(sc.Backscatter.TotalVictims, sc.Scale)
	codes, weights := expandShares(sc.Backscatter.CountryShares, g.reg)
	counts := devicedb.Apportion(nVict, weights)

	byCountryCat := make(map[string]map[devicedb.Category][]*actor)
	for _, a := range g.actors {
		m := byCountryCat[a.dev.Country]
		if m == nil {
			m = make(map[devicedb.Category][]*actor)
			byCountryCat[a.dev.Country] = m
		}
		m[a.dev.Category] = append(m[a.dev.Category], a)
	}
	var leftovers int
	for ci, code := range codes {
		need := counts[ci]
		if need == 0 {
			continue
		}
		cpsFrac := sc.Backscatter.CPSFrac
		if bias, ok := victimCPSBias[code]; ok {
			cpsFrac = bias
		}
		for k := 0; k < need; k++ {
			cat := devicedb.Consumer
			if r.Bool(cpsFrac) {
				cat = devicedb.CPS
			}
			a := pickVictim(r, byCountryCat[code], cat)
			if a == nil {
				leftovers++
				continue
			}
			g.makeBaselineVictim(r, a)
		}
	}
	// Spill leftovers anywhere.
	for leftovers > 0 {
		a := g.actors[r.Intn(len(g.actors))]
		if !a.victim() {
			g.makeBaselineVictim(r, a)
			leftovers--
			continue
		}
		// Dense victim population already; give up gracefully.
		break
	}
}

func pickVictim(r *rng.Source, m map[devicedb.Category][]*actor, want devicedb.Category) *actor {
	if m == nil {
		return nil
	}
	for _, cat := range []devicedb.Category{want, otherCategory(want)} {
		pool := m[cat]
		if len(pool) == 0 {
			continue
		}
		start := r.Intn(len(pool))
		for i := 0; i < len(pool); i++ {
			a := pool[(start+i)%len(pool)]
			if !a.victim() {
				return a
			}
		}
	}
	return nil
}

func otherCategory(c devicedb.Category) devicedb.Category {
	if c == devicedb.Consumer {
		return devicedb.CPS
	}
	return devicedb.Consumer
}

// makeBaselineVictim gives the actor a heavy-tailed backscatter schedule.
// Per-victim volumes are deliberately NOT scaled: populations scale, device
// behaviour does not, so the Fig. 6 CDF holds at any scale.
func (g *Generator) makeBaselineVictim(r *rng.Source, a *actor) {
	bc := g.sc.Backscatter
	var total float64
	if r.Bool(bc.SmallFrac) {
		total = r.Pareto(bc.SmallXm, bc.SmallAlpha)
	} else {
		total = r.Pareto(bc.HeavyXm, bc.HeavyAlpha)
	}
	if a.dev.Category == devicedb.CPS && bc.CPSVolumeFactor > 0 {
		total *= bc.CPSVolumeFactor
	}
	if total > bc.MaxVictimTotal {
		// Jitter clamped totals so they do not pile on one CDF point.
		total = bc.MaxVictimTotal * (0.5 + 0.5*r.Float64())
	}
	if total < 1 {
		total = 1
	}
	// Victims draw fire throughout the window (Fig. 7 shows backscatter in
	// every interval), so a victim's first appearance lands on day one
	// even when its own probing starts later.
	if day1 := min(24, g.sc.Hours); a.onset >= day1 {
		a.onset = r.Intn(day1)
	}
	// CPS devices are "attacked more often and with higher intensity"
	// (Sec. IV-B1): near-continuous harassment, while consumer victims see
	// short bursts.
	hours := 5 + r.Intn(10)
	if a.dev.Category == devicedb.CPS {
		hours = 50 + r.Intn(50)
	}
	schedule := make(map[int]float64, hours)
	span := g.sc.Hours - a.onset
	if span < 1 {
		span = 1
	}
	for i := 0; i < hours; i++ {
		h := a.onset + r.Intn(span)
		schedule[h] += total / float64(hours)
	}
	a.events = append(a.events, event{kind: evBackscatter, sched: schedule})
}

// victim reports whether the actor draws DoS backscatter.
func (a *actor) victim() bool {
	for _, ev := range a.events {
		if ev.kind == evBackscatter {
			return true
		}
	}
	return false
}

// devicePort maps a device to the service port its backscatter carries
// (the port the paper used to identify victims' exposed services).
func devicePort(d devicedb.Device) uint16 {
	if d.Category == devicedb.CPS {
		if len(d.Services) > 0 {
			if p, ok := cpsServicePorts[d.Services[0]]; ok {
				return p
			}
		}
		return 502
	}
	switch d.Type {
	case devicedb.TypeRouter:
		return 7547
	case devicedb.TypeIPCamera:
		return 554
	case devicedb.TypePrinter:
		return 9100
	case devicedb.TypeStorage:
		return 445
	case devicedb.TypeDVR:
		return 8000
	default:
		return 80
	}
}

// cpsServicePorts maps CPS services to representative ports. Ethernet/IP's
// 44818 is load-bearing: the paper identifies the big DoS victims by it.
var cpsServicePorts = map[string]uint16{
	"Ethernet/IP":              44818,
	"Modbus TCP":               502,
	"BACnet/IP":                47808,
	"Telvent OASyS DNA":        5050,
	"SNC GENe":                 38000,
	"MQ Telemetry Transport":   1883,
	"Niagara Fox":              1911,
	"ABB Ranger":               10307,
	"Siemens Spectrum PowerTG": 8090,
	"Foxboro/Invensys Foxboro": 55555,
	"Foundation Fieldbus HSE":  1089,
}

// assignScripted wires the paper's narrated events to concrete devices,
// each on a distinct device, as events that pull its onset earlier.
func (g *Generator) assignScripted() error {
	sc := g.sc
	r := g.root.Derive("scripted")
	g.truth.EventVictims = make(map[string]int)
	used := make(map[int]bool)
	attach := func(a *actor, ev event, hours ...int) {
		used[a.id] = true
		a.events = append(a.events, ev)
		for _, h := range hours {
			a.onset = min(a.onset, h)
		}
	}

	// DoS events.
	for _, ev := range sc.Backscatter.Events {
		a := g.findActor(r, ev.Country, ev.Category, ev.Service, ev.DeviceType, used)
		if a == nil {
			return fmt.Errorf("wgen: no candidate device for DoS event %q", ev.Name)
		}
		sched := make(map[int]float64)
		for _, h := range ev.Hours {
			if h < g.sc.Hours {
				sched[h] += ev.PacketsPerHour * sc.Scale
			}
		}
		attach(a, event{kind: evBackscatter, sched: sched}, ev.Hours...)
		g.truth.EventVictims[ev.Name] = a.id
	}

	// SSH spike members.
	spike := sc.TCPScan.SSHSpike
	for _, m := range spike.Members {
		a := g.findActor(r, m.Country, m.Category, "", 0, used)
		if a == nil {
			continue
		}
		sched := make(map[int]float64, len(spike.Hours))
		for _, h := range spike.Hours {
			sched[h] = spike.PacketsPerHour * sc.Scale * m.PacketFrac
		}
		attach(a, event{kind: evSurge, sched: sched, ports: []uint16{22}}, spike.Hours...)
	}

	// BackroomNet scanner: a single CPS device.
	if tcp := sc.TCPScan; tcp.BackroomPacketsPerHour > 0 {
		a := g.findActor(r, tcp.BackroomCountry, devicedb.CPS, tcp.BackroomService, 0, used)
		if a == nil {
			a = g.findActor(r, "", devicedb.CPS, "", 0, used)
		}
		if a != nil {
			attach(a, event{kind: evSurge, from: tcp.BackroomStartHour, to: sc.Hours,
				rate: tcp.BackroomPacketsPerHour * sc.Scale, ports: []uint16{3387}}, tcp.BackroomStartHour)
		}
	}

	// Port-spike camera.
	if h := sc.TCPScan.PortSpikeHour; sc.TCPScan.PortSpikePorts > 0 && h < sc.Hours {
		if a := g.findActor(r, sc.TCPScan.PortSpikeCountry, devicedb.Consumer, "", devicedb.TypeIPCamera, used); a != nil {
			attach(a, event{kind: evSweep, from: h, to: h + 1}, h)
		}
	}
	return nil
}

// findActor locates a compromised device matching the selector, relaxing
// constraints country -> service/type -> category as needed.
func (g *Generator) findActor(r *rng.Source, country string, cat devicedb.Category,
	service string, typ devicedb.DeviceType, used map[int]bool) *actor {

	match := func(a *actor, needCountry, needSvc, needType bool) bool {
		if used != nil && used[a.id] {
			return false
		}
		if a.dev.Category != cat {
			return false
		}
		if needCountry && country != "" && a.dev.Country != country {
			return false
		}
		if needSvc && service != "" && !hasService(a.dev, service) {
			return false
		}
		if needType && typ != 0 && a.dev.Type != typ {
			return false
		}
		return true
	}
	relaxations := []struct{ country, svc, typ bool }{
		{true, true, true},
		{false, true, true},
		{true, false, false},
		{false, false, false},
	}
	for _, rx := range relaxations {
		start := r.Intn(len(g.actors))
		for i := 0; i < len(g.actors); i++ {
			a := g.actors[(start+i)%len(g.actors)]
			if match(a, rx.country, rx.svc, rx.typ) {
				return a
			}
		}
	}
	return nil
}

func hasService(d devicedb.Device, svc string) bool {
	for _, s := range d.Services {
		if s == svc {
			return true
		}
	}
	return false
}

// ensureAllEmit guarantees every compromised device produces at least some
// darknet traffic (the paper defines "compromised" by appearance at the
// telescope), assigning a trickle UDP tail to silent devices.
func (g *Generator) ensureAllEmit() {
	for _, a := range g.actors {
		if len(a.tcpSvcs) == 0 && a.tcpRandom == 0 && len(a.udpGroups) == 0 &&
			a.udpTail == 0 && a.icmpRate == 0 && a.otherRate == 0 && len(a.events) == 0 {
			a.udpTail = 2 // a couple of packets per active hour
		}
	}
}

// sourcePool pre-draws a non-IoT source population of the full-scale size
// sources from r: addresses in the registry, outside the inventory.
func (g *Generator) sourcePool(r *rng.Source, sources int) []uint32 {
	n := scaleCount(sources, g.sc.Scale)
	pool := make([]uint32, 0, n)
	nISPs := len(g.reg.ISPs)
	for len(pool) < n {
		a := g.reg.RandomAddr(r, r.Intn(nISPs))
		if _, inInv := g.inv.LookupIP(a); inInv {
			continue
		}
		pool = append(pool, uint32(a))
	}
	return pool
}

// finalizeTruth snapshots the planted ground truth.
func (g *Generator) finalizeTruth() {
	t := &g.truth
	t.OnsetHour = make(map[int]int, len(g.actors))
	t.ActivityWeight = make(map[int]float64, len(g.actors))
	for _, a := range g.actors {
		t.Compromised = append(t.Compromised, a.id)
		t.OnsetHour[a.id] = a.onset
		t.ActivityWeight[a.id] = g.actorWeight(a)
		if a.victim() {
			t.Victims = append(t.Victims, a.id)
		}
		if len(a.tcpSvcs) > 0 || a.tcpRandom > 0 {
			t.TCPScanners = append(t.TCPScanners, a.id)
		}
		if len(a.udpGroups) > 0 || a.udpTail > 0 {
			t.UDPProbers = append(t.UDPProbers, a.id)
		}
		if a.icmpRate > 0 {
			t.ICMPScanners = append(t.ICMPScanners, a.id)
		}
	}
	sort.Ints(t.Compromised)
	sort.Ints(t.Victims)
	sort.Ints(t.TCPScanners)
	sort.Ints(t.UDPProbers)
	sort.Ints(t.ICMPScanners)
	for _, ids := range t.Cohorts {
		sort.Ints(ids)
	}
}
