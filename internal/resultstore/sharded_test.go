package resultstore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"iotscope/internal/correlate"
)

// The sharded correlation's byte-identity claim, proved at the codec
// level: the store encoding of a merged sharded run must be bit-for-bit
// identical to the encoding of the unsharded oracle — Workers 1/8 ×
// strict/lenient, shard counts 1, 2, 4, 8. The encoder is deterministic
// (TestWriteAtomicDeterministic), so equal bytes here means the two Results
// are indistinguishable to every downstream consumer.
func TestShardedResultBytesIdentical(t *testing.T) {
	dir, g := makeDataset(t, 73, 6)
	for _, workers := range []int{1, 8} {
		for _, policy := range []correlate.FaultPolicy{correlate.Strict, correlate.Lenient} {
			oracle := correlate.New(g.Inventory(), correlate.Options{
				Workers: workers, FaultPolicy: policy,
			})
			want, err := oracle.ProcessDataset(context.Background(), dir)
			if err != nil {
				t.Fatal(err)
			}
			wantPath := filepath.Join(t.TempDir(), "oracle.irs")
			if err := WriteResult(wantPath, want); err != nil {
				t.Fatal(err)
			}
			wantBytes, err := os.ReadFile(wantPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 4, 8} {
				c := correlate.New(g.Inventory(), correlate.Options{
					Workers: workers, FaultPolicy: policy, Shards: shards,
				})
				got, _, err := c.ProcessDatasetSharded(context.Background(), dir)
				if err != nil {
					t.Fatalf("workers=%d policy=%v shards=%d: %v", workers, policy, shards, err)
				}
				gotPath := filepath.Join(t.TempDir(), "sharded.irs")
				if err := WriteResult(gotPath, got); err != nil {
					t.Fatal(err)
				}
				gotBytes, err := os.ReadFile(gotPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantBytes, gotBytes) {
					t.Fatalf("workers=%d policy=%v shards=%d: store bytes diverged (%d vs %d bytes)",
						workers, policy, shards, len(wantBytes), len(gotBytes))
				}
			}
		}
	}
}
