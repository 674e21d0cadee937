package correlate

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"reflect"
	"slices"
	"testing"

	"iotscope/internal/flowtuple"
)

// The export layer must be a lossless, deterministic projection of the
// analyzed state: Result → Export → Result is byte-identical (DeepEqual
// against the original, which itself is proven against the map-based
// oracle in reference_test.go), and a restored incremental checkpoint
// behaves exactly like the original had it never stopped.

func TestExportRoundTripBatch(t *testing.T) {
	dir, g := cleanDataset(t, 51, 6)
	for _, workers := range []int{1, 8} {
		for _, policy := range []FaultPolicy{Strict, Lenient} {
			c := New(g.Inventory(), Options{Workers: workers, FaultPolicy: policy})
			res, err := c.ProcessDataset(context.Background(), dir)
			if err != nil {
				t.Fatal(err)
			}
			back, err := res.Export().Result()
			if err != nil {
				t.Fatalf("workers=%d policy=%v: import: %v", workers, policy, err)
			}
			requireIdentical(t, res, back)
		}
	}
}

// Export is deterministic: two exports of the same Result are DeepEqual
// (the map flattening is canonically ordered, not map-iteration ordered).
func TestExportDeterministic(t *testing.T) {
	dir, g := cleanDataset(t, 52, 4)
	c := New(g.Inventory(), Options{Workers: 4})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Export(), res.Export()) {
		t.Fatal("two exports of the same result differ")
	}
}

// A damaged dataset under the Lenient policy carries fault records whose
// wrapped errors cannot survive serialization as-is; the export preserves
// the sentinel classification so errors.Is and IsRetryable answer the same
// after a round trip, and everything else stays byte-identical.
func TestExportRoundTripLenientFaults(t *testing.T) {
	dir, g := damagedDataset(t)
	c := New(g.Inventory(), Options{Workers: 2, FaultPolicy: Lenient})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ingest.Faults) == 0 {
		t.Fatal("damaged dataset produced no faults")
	}
	back, err := res.Export().Result()
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, res, back)
	if !reflect.DeepEqual(res.Export(), back.Export()) {
		t.Fatal("export forms diverged after round trip")
	}
	if len(back.Ingest.Faults) != len(res.Ingest.Faults) {
		t.Fatalf("fault count %d != %d", len(back.Ingest.Faults), len(res.Ingest.Faults))
	}
	for i, want := range res.Ingest.Faults {
		got := back.Ingest.Faults[i]
		if got.Hour != want.Hour || got.Retryable != want.Retryable || got.Attempts != want.Attempts {
			t.Fatalf("fault %d bookkeeping diverged: %+v vs %+v", i, got, want)
		}
		if got.Err.Error() != want.Err.Error() {
			t.Fatalf("fault %d message %q != %q", i, got.Err.Error(), want.Err.Error())
		}
		for _, sentinel := range []error{flowtuple.ErrBadFormat, flowtuple.ErrTruncated, fs.ErrNotExist} {
			if errors.Is(got.Err, sentinel) != errors.Is(want.Err, sentinel) {
				t.Fatalf("fault %d sentinel %v classification diverged", i, sentinel)
			}
		}
		if IsRetryable(got.Err) != IsRetryable(want.Err) {
			t.Fatalf("fault %d retryability diverged", i)
		}
	}
}

// Structurally invalid exports must be rejected, never imported into a
// subtly wrong Result.
func TestImportRejectsInvalid(t *testing.T) {
	dir, g := cleanDataset(t, 53, 3)
	c := New(g.Inventory(), Options{Workers: 1})
	res, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(e *ResultExport){
		"zero hours":          func(e *ResultExport) { e.Hours = 0 },
		"hourly count":        func(e *ResultExport) { e.Hourly = e.Hourly[:len(e.Hourly)-1] },
		"hourly label":        func(e *ResultExport) { e.Hourly[1].Hour = 2 },
		"device order":        func(e *ResultExport) { e.Devices[0], e.Devices[1] = e.Devices[1], e.Devices[0] },
		"unknown port device": func(e *ResultExport) { e.UDPPorts[0].Devices = []int32{1 << 30} },
		"port-hour range": func(e *ResultExport) {
			e.TCPPortHour = append(e.TCPPortHour, PortHourExport{Port: 65535, Hour: uint16(e.Hours)})
		},
		"port-hour order": func(e *ResultExport) {
			e.TCPPortHour[0], e.TCPPortHour[1] = e.TCPPortHour[1], e.TCPPortHour[0]
		},
		"port-hour duplicate": func(e *ResultExport) {
			e.TCPPortHour = slices.Insert(e.TCPPortHour, 1, e.TCPPortHour[0])
		},
	}
	if n := len(res.Export().TCPPortHour); n < 2 {
		t.Fatalf("dataset has %d port-hour cells, the order rows need two", n)
	}
	for name, mutate := range mutations {
		e := res.Export()
		mutate(e)
		if _, err := e.Result(); err == nil {
			t.Errorf("%s: corrupted export imported cleanly", name)
		}
	}

	// A cell whose port has no TCP aggregate is well formed: the loader
	// places it in its hour's list.
	e := res.Export()
	port := uint16(1)
	for slices.ContainsFunc(e.TCPScanPorts, func(a TCPPortExport) bool { return a.Port == port }) {
		port++
	}
	at, _ := slices.BinarySearchFunc(e.TCPPortHour, port, func(c PortHourExport, p uint16) int { return cmp.Compare(c.Port, p) })
	e.TCPPortHour = slices.Insert(e.TCPPortHour, at, PortHourExport{Port: port, Hour: 1, Packets: 9})
	back, err := e.Result()
	if err != nil {
		t.Fatalf("cell on port %d without an aggregate: %v", port, err)
	}
	if !slices.Contains(back.TCPPortHour[1], PortDelta{Port: port, Packets: 9}) {
		t.Fatalf("cell on port %d missing from hour 1: %v", port, back.TCPPortHour[1])
	}
}

// Checkpoint → restore → keep ingesting is indistinguishable from never
// stopping: identical fresh-device notifications for the remaining hours
// and an identical final Result (which in turn equals a cold batch run).
func TestCheckpointResumeIdentical(t *testing.T) {
	dir, g := cleanDataset(t, 54, 6)
	c := New(g.Inventory(), Options{Workers: 2})

	uninterrupted, err := c.NewIncremental(6)
	if err != nil {
		t.Fatal(err)
	}
	var wantFresh [][]int
	for h := 0; h < 6; h++ {
		fresh, err := uninterrupted.Ingest(context.Background(), dir, h)
		if err != nil {
			t.Fatal(err)
		}
		wantFresh = append(wantFresh, fresh)
	}

	first, err := c.NewIncremental(6)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		if _, err := first.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	cp := first.Export()
	// Exporting must not disturb the exporter: it can keep ingesting.
	if _, err := first.Ingest(context.Background(), dir, 3); err != nil {
		t.Fatalf("ingest after export: %v", err)
	}

	resumed, err := c.RestoreIncremental(cp)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.HoursIngested(); got != 3 {
		t.Fatalf("restored instance reports %d hours, want 3", got)
	}
	for h := 3; h < 6; h++ {
		fresh, err := resumed.Ingest(context.Background(), dir, h)
		if err != nil {
			t.Fatalf("resumed ingest hour %d: %v", h, err)
		}
		if !reflect.DeepEqual(fresh, wantFresh[h]) {
			t.Fatalf("hour %d fresh devices %v, uninterrupted run saw %v", h, fresh, wantFresh[h])
		}
	}
	requireIdentical(t, uninterrupted.Result(), resumed.Result())

	batch, err := c.ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	sameData(t, batch, resumed.Result())
}

// Re-ingesting an hour the checkpoint already covers must be rejected, and
// the quarantine set must survive the round trip.
func TestCheckpointBookkeepingSurvives(t *testing.T) {
	dir, g := damagedDataset(t) // hour 2 corrupt (permanent), hour 3 truncated
	c := New(g.Inventory(), Options{Workers: 1, FaultPolicy: Lenient})
	inc, err := c.NewIncremental(6)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 6; h++ {
		inc.Ingest(context.Background(), dir, h) //nolint:errcheck // faults recorded in stats
	}
	resumed, err := c.RestoreIncremental(inc.Export())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Ingest(context.Background(), dir, 0); err == nil {
		t.Fatal("re-ingest of checkpointed hour accepted")
	}
	if !resumed.Quarantined(2) {
		t.Fatal("quarantine of hour 2 lost in round trip")
	}
	if resumed.Quarantined(3) {
		t.Fatal("retryable hour 3 must stay open after restore")
	}
	// The fault errors are reconstructed values, so compare the stats in
	// their JSON form (which flattens errors to messages).
	wantJSON, _ := json.Marshal(inc.Stats())
	gotJSON, _ := json.Marshal(resumed.Stats())
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("ingest stats diverged:\n restored %s\n original %s", gotJSON, wantJSON)
	}
}

func TestRestoreIncrementalRejects(t *testing.T) {
	dir, g := cleanDataset(t, 55, 3)
	c := New(g.Inventory(), Options{Workers: 1})
	inc, err := c.NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	good := inc.Export()

	cases := map[string]func(cp *CheckpointExport){
		"nil result":      func(cp *CheckpointExport) { cp.Result = nil },
		"hours mismatch":  func(cp *CheckpointExport) { cp.MaxHours = 4 },
		"hour range":      func(cp *CheckpointExport) { cp.IngestedHours = []int32{7} },
		"hour order":      func(cp *CheckpointExport) { cp.IngestedHours = []int32{0, 0} },
		"count mismatch":  func(cp *CheckpointExport) { cp.IngestedHours = nil },
		"both states":     func(cp *CheckpointExport) { cp.QuarantinedHours = []int32{0} },
		"precision":       func(cp *CheckpointExport) { cp.BGPrecision++ },
		"register length": func(cp *CheckpointExport) { cp.BGRegisters = cp.BGRegisters[:10] },
	}
	for name, mutate := range cases {
		cp := *good
		cp.IngestedHours = append([]int32(nil), good.IngestedHours...)
		cp.QuarantinedHours = append([]int32(nil), good.QuarantinedHours...)
		mutate(&cp)
		if _, err := c.RestoreIncremental(&cp); err == nil {
			t.Errorf("%s: invalid checkpoint restored cleanly", name)
		}
	}
	// Device index outside the inventory.
	cp := *good
	bad := *good.Result
	bad.Devices = append([]DeviceExport(nil), good.Result.Devices...)
	if len(bad.Devices) == 0 {
		t.Fatal("expected at least one device")
	}
	bad.Devices[len(bad.Devices)-1].ID = int32(c.inv.Len() + 5)
	cp.Result = &bad
	if _, err := c.RestoreIncremental(&cp); err == nil {
		t.Error("out-of-inventory device restored cleanly")
	}

	if _, err := c.RestoreIncremental(good); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
}

// Corrupt hour sets must surface as ErrBadFormat-family errors — the
// signal a resuming collector uses to discard the checkpoint and rebuild —
// never as a panic or an unclassified error.
func TestRestoreIncrementalBadHourSets(t *testing.T) {
	dir, g := cleanDataset(t, 56, 3)
	c := New(g.Inventory(), Options{Workers: 1})
	inc, err := c.NewIncremental(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Ingest(context.Background(), dir, 0); err != nil {
		t.Fatal(err)
	}
	good := inc.Export()

	cases := map[string]func(cp *CheckpointExport){
		"hour at maxHours":     func(cp *CheckpointExport) { cp.IngestedHours = []int32{3} },
		"hour beyond maxHours": func(cp *CheckpointExport) { cp.IngestedHours = []int32{12} },
		"negative hour":        func(cp *CheckpointExport) { cp.IngestedHours = []int32{-1} },
		"duplicate hours":      func(cp *CheckpointExport) { cp.IngestedHours = []int32{0, 0} },
		"descending hours":     func(cp *CheckpointExport) { cp.IngestedHours = []int32{2, 0} },
		"quarantined dup": func(cp *CheckpointExport) {
			cp.QuarantinedHours = []int32{1, 1}
		},
		"quarantined range": func(cp *CheckpointExport) {
			cp.QuarantinedHours = []int32{5}
		},
	}
	for name, mutate := range cases {
		cp := *good
		cp.IngestedHours = append([]int32(nil), good.IngestedHours...)
		cp.QuarantinedHours = append([]int32(nil), good.QuarantinedHours...)
		mutate(&cp)
		_, err := func() (inc *Incremental, err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: RestoreIncremental panicked: %v", name, r)
				}
			}()
			return c.RestoreIncremental(&cp)
		}()
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: got %v, want ErrBadFormat", name, err)
		}
	}
}
