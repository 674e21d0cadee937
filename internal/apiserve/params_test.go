package apiserve

import (
	"net/http"
	"testing"
)

// The parameter-validation contract, table-driven: every bounded query
// parameter on a read endpoint rejects out-of-range or unparsable values
// with 400 and a parameter-specific message — values are never silently
// capped.
func TestParamValidation(t *testing.T) {
	s := loadServer(t)

	cases := []struct {
		path    string
		code    int
		errMsg  string // checked only for non-200s
		comment string
	}{
		// /v1/devices limit
		{"/v1/devices?limit=0", 400, "limit must be 1..1000", "below range"},
		{"/v1/devices?limit=1001", 400, "limit must be 1..1000", "above range, not capped"},
		{"/v1/devices?limit=abc", 400, "limit must be 1..1000", "unparsable"},
		{"/v1/devices?limit=1", 200, "", "lower bound inclusive"},
		{"/v1/devices?limit=1000", 200, "", "upper bound inclusive"},
		// /v1/devices offset
		{"/v1/devices?offset=-1", 400, "offset must be >= 0", "negative"},
		{"/v1/devices?offset=1.5", 400, "offset must be >= 0", "not an integer"},
		{"/v1/devices?offset=0", 200, "", "zero offset"},
		// /v1/devices category + cursor
		{"/v1/devices?category=toaster", 400, "unknown category", "unknown category"},
		{"/v1/devices?category=consumer", 200, "", "valid category"},
		{"/v1/devices?cursor=!!!", 400, "bad cursor", "garbage cursor"},
		{"/v1/devices?cursor=bm90LWEtY3Vyc29y", 400, "bad cursor", "well-formed base64, wrong payload"},
		{"/v1/devices?cursor=start&offset=5", 400, "cursor and offset are mutually exclusive", "mixed paging modes"},
		{"/v1/devices?cursor=start", 200, "", "cursor sentinel"},
		// /v1/ports/udp n
		{"/v1/ports/udp?n=0", 400, "n must be 1..1000", "below range"},
		{"/v1/ports/udp?n=1001", 400, "n must be 1..1000", "above range, not capped"},
		{"/v1/ports/udp?n=x", 400, "n must be 1..1000", "unparsable"},
		{"/v1/ports/udp?n=1", 200, "", "lower bound"},
		// /v1/spikes threshold
		{"/v1/spikes?threshold=1", 400, "threshold must be > 1", "floor is exclusive"},
		{"/v1/spikes?threshold=0.5", 400, "threshold must be > 1", "below floor"},
		{"/v1/spikes?threshold=x", 400, "threshold must be > 1", "unparsable"},
		// NaN compares false against any floor; the validator must not let
		// it through to the encoder (the pre-matview handler did, and the
		// response body broke mid-encode).
		{"/v1/spikes?threshold=NaN", 400, "threshold must be > 1", "NaN rejected"},
		{"/v1/spikes?threshold=1.001", 200, "", "just above floor"},
		// /v1/reports minDevices
		{"/v1/reports?minDevices=0", 400, "minDevices must be >= 1", "below floor"},
		{"/v1/reports?minDevices=-3", 400, "minDevices must be >= 1", "negative"},
		{"/v1/reports?minDevices=z", 400, "minDevices must be >= 1", "unparsable"},
		{"/v1/reports?minDevices=1", 200, "", "floor inclusive"},
		// path params
		{"/v1/devices/notanid", 400, "bad device id", "non-numeric id"},
		{"/v1/threats/999.1.1.1", 400, "bad IP", "invalid IP"},
	}
	for _, tc := range cases {
		code, body := get(t, s, tc.path, testToken)
		if code != tc.code {
			t.Errorf("%s (%s): status %d, want %d (%v)", tc.path, tc.comment, code, tc.code, body)
			continue
		}
		if tc.code != http.StatusOK {
			if got, _ := body["error"].(string); got != tc.errMsg {
				t.Errorf("%s (%s): error %q, want %q", tc.path, tc.comment, got, tc.errMsg)
			}
		}
	}
}
