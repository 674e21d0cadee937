package core_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"iotscope/internal/apiserve"
	"iotscope/internal/core"
	"iotscope/internal/resultstore"
	"iotscope/internal/scenario"
)

// TestDigestOffTheBytes: on every bundled scenario, the digest the load path
// reads off the store's bytes, the one the analyze path computes and
// resultstore.DigestResult are one number, and a server built either way
// hands out the same ETag for /v1/summary.
func TestDigestOffTheBytes(t *testing.T) {
	for _, m := range scenario.List() {
		t.Run(m.Ref(), func(t *testing.T) {
			t.Parallel()
			// The full window: several scenarios plant nothing in a short one.
			const scale, seed = 0.001, 9
			rs, err := scenario.Resolve(m.Ref(), scenario.Options{Scale: scale, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ds, err := core.GenerateScenario(core.DefaultConfig(scale, seed), rs, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			dsA, analyzed, prov, repA, err := core.LoadSnapshotOpts(ctx, ds.Dir, core.LoadOptions{})
			if err != nil || prov.Source != "analyze" {
				t.Fatalf("analyze path: %+v, %v", prov, err)
			}
			store := filepath.Join(t.TempDir(), "snapshot.irs")
			if err := core.SaveSnapshot(store, analyzed); err != nil {
				t.Fatal(err)
			}
			dsL, loaded, prov, repL, err := core.LoadSnapshotOpts(ctx, ds.Dir, core.LoadOptions{Store: store, RequireStore: true})
			if err != nil || prov.Source != "store" {
				t.Fatalf("load path: %+v, %v", prov, err)
			}

			want, err := resultstore.DigestResult(analyzed.Correlate)
			if err != nil {
				t.Fatal(err)
			}
			recomputed, err := resultstore.DigestResult(loaded.Correlate)
			if err != nil {
				t.Fatal(err)
			}
			if a, l := analyzed.Views.Digest(), loaded.Views.Digest(); a != want || l != want || recomputed != want {
				t.Fatalf("analyze path %08x, load path %08x, DigestResult of the loaded result %08x, of the analyzed %08x", a, l, recomputed, want)
			}
			tag := fmt.Sprintf("digest=%08x", want)
			if note := repA.Stage(core.StageMaterialize).Note; !strings.HasPrefix(note, tag+" (computed) ") {
				t.Fatalf("analyze path's materialize note %q", note)
			}
			if note := repL.Stage(core.StageMaterialize).Note; !strings.HasPrefix(note, tag+" (store) ") {
				t.Fatalf("load path's materialize note %q", note)
			}
			if note := repL.Stage(core.StageLoadStore).Note; !strings.Contains(note, "overlapping open") {
				t.Fatalf("load-store note %q does not say the read overlapped open", note)
			}

			etag := func(ds *core.Dataset, res *core.Results) string {
				api, err := apiserve.New(ds, res, []string{"tok"})
				if err != nil {
					t.Fatal(err)
				}
				req := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
				req.Header.Set("Authorization", "Bearer tok")
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("/v1/summary: %d", rec.Code)
				}
				return rec.Header().Get("ETag")
			}
			if a, l := etag(dsA, analyzed), etag(dsL, loaded); a != l || a != fmt.Sprintf(`"g1-%08x"`, want) {
				t.Fatalf("ETag %s from the analyze path, %s from the load path; digest %08x", a, l, want)
			}
		})
	}
}
