package apiserve

import (
	"math"
	"net/http"
	"strconv"
)

const maxInt = math.MaxInt

// Query-parameter validation policy (the one validated-params helper):
// every bounded parameter on a read endpoint is REJECTED with 400 and a
// parameter-specific message when it is absent-from-range or unparsable —
// never silently capped.

// intParam parses raw as an integer parameter: empty means def, anything
// unparsable or outside [lo, hi] writes a 400 with msg and reports
// ok=false.
func intParam(w http.ResponseWriter, raw string, def, lo, hi int, msg string) (int, bool) {
	v := def
	if raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, msg)
			return 0, false
		}
		v = parsed
	}
	if v < lo || v > hi {
		writeError(w, http.StatusBadRequest, msg)
		return 0, false
	}
	return v, true
}

// floatParamGreaterThan parses raw as a float parameter: empty means def,
// anything unparsable, infinite or <= floor writes a 400 with msg and
// reports ok=false.
func floatParamGreaterThan(w http.ResponseWriter, raw string, def, floor float64, msg string) (float64, bool) {
	v := def
	if raw != "" {
		parsed, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, msg)
			return 0, false
		}
		v = parsed
	}
	// !(v > floor) rather than v <= floor so NaN is rejected too, and +Inf
	// by name: either passes a plain comparison and then fails mid-encode,
	// since JSON has no non-finite numbers.
	if !(v > floor) || math.IsInf(v, 1) {
		writeError(w, http.StatusBadRequest, msg)
		return 0, false
	}
	return v, true
}
