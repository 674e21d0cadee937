package resultstore

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"iotscope/internal/correlate"
	"iotscope/internal/flowtuple"
	"iotscope/internal/profiling"
)

// testdata/result-v1.irs: makeDataset(93, 3) correlated and written by
// WriteResult at the commit before Export stopped sorting its port tables and
// encode stopped staging its sections. The walk, the counting pass and the
// in-place frames must reproduce it byte for byte, and the digest with it.
func TestResultFixtureEncodesToCommittedBytes(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "result-v1.irs"))
	if err != nil {
		t.Fatal(err)
	}
	dir, g := makeDataset(t, 93, 3)
	res, err := correlate.New(g.Inventory(), correlate.Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(KindResult, res.Export(), nil), fixture) {
		t.Fatal("the result no longer encodes to its committed bytes")
	}
	if dg, err := DigestResult(res); err != nil || dg != crc32.ChecksumIEEE(fixture) {
		t.Fatalf("digest %08x, %v; the committed image hashes to %08x", dg, err, crc32.ChecksumIEEE(fixture))
	}
	back, _, _, err := decode(fixture, KindResult)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(KindResult, back, nil), fixture) {
		t.Fatal("the decoded fixture does not re-encode to itself")
	}
}

// imageSize is a second statement of the format, kept true by this test: on
// a result with faults and on a checkpoint, the buffer it sizes is filled to
// the last byte and never grows.
func TestImageSizeIsExact(t *testing.T) {
	dir, g := makeDataset(t, 94, 4)
	c := correlate.New(g.Inventory(), correlate.Options{FaultPolicy: correlate.Lenient})
	inc, err := c.NewIncremental(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{0, 1, 3} {
		if _, err := inc.Ingest(context.Background(), dir, h); err != nil {
			t.Fatal(err)
		}
	}
	inc.Quarantine(2, fmt.Errorf("hour 2: %w", flowtuple.ErrBadFormat))
	cp := inc.Export()
	if len(cp.Result.Faults) == 0 || len(cp.QuarantinedHours) == 0 {
		t.Fatalf("fixture has %d faults, %d quarantined hours", len(cp.Result.Faults), len(cp.QuarantinedHours))
	}
	for _, kind := range []Kind{KindResult, KindCheckpoint} {
		img := encode(kind, cp.Result, cp)
		if want := imageSize(kind, cp.Result, cp); len(img) != want || cap(img) != want {
			t.Errorf("%s image is %d bytes in a %d-byte buffer, sized as %d", kind, len(img), cap(img), want)
		}
	}
}

// The digest's cost follows what it hashes: encode makes the image in one
// buffer (it used to allocate seven times the image, a buffer per section
// grown by doubling and then copied), and DigestResult allocates that plus
// the export's flat tables and nothing else that grows with the result. The
// tables' rows are wider in memory than on disk (a 72-byte TCPPortExport
// encodes to 26 bytes plus its lists), so the whole is about three images,
// down from ten; under two would take a digest that does not go through
// Export.
func TestDigestAllocatesTheImageOnce(t *testing.T) {
	if profiling.RaceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	dir, g := makeDataset(t, 95, 24)
	res, err := correlate.New(g.Inventory(), correlate.Options{}).ProcessDataset(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Export()
	image := uint64(len(encode(KindResult, e, nil)))
	if got := profiling.AllocBytes(5, func() { encode(KindResult, e, nil) }); got > image+image/16 {
		t.Errorf("encode allocates %d bytes for a %d-byte image", got, image)
	}
	if got := testing.AllocsPerRun(5, func() { encode(KindResult, e, nil) }); got > 8 {
		t.Errorf("encode makes %v allocations", got)
	}
	tables := uint64(len(e.UDPPorts))*uint64(unsafe.Sizeof(correlate.PortExport{})) +
		uint64(len(e.TCPScanPorts))*uint64(unsafe.Sizeof(correlate.TCPPortExport{})) +
		uint64(len(e.TCPPortHour))*uint64(unsafe.Sizeof(correlate.PortHourExport{})) +
		uint64(len(e.Devices))*uint64(unsafe.Sizeof(correlate.DeviceExport{})) +
		uint64(len(e.Hourly))*uint64(unsafe.Sizeof(correlate.HourStats{}))
	got := profiling.AllocBytes(5, func() { DigestResult(res) })
	t.Logf("image %d B, export tables %d B, DigestResult allocates %d B (%.2fx the image)", image, tables, got, float64(got)/float64(image))
	if got > image+tables+(image+tables)/8 {
		t.Errorf("DigestResult allocates %d bytes for a %d-byte image and %d bytes of export tables", got, image, tables)
	}
}
