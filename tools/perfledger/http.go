package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"
)

// request is one entry of the read mix.
type request struct {
	ep   string // layer-metric endpoint name
	path string
	want int
	// page marks a /v1/devices page: the client appends its cursor and
	// follows nextCursor from reply to reply.
	page bool
	// conditional sends If-None-Match with the ETag the client last saw.
	conditional bool
}

// buildMix is the fixed 20-request cycle each client repeats: 6 summary, 5
// device pages following cursors, 2 single devices, 2 UDP port tables, spikes,
// signatures, 2 revalidations answered 304, and 1 reports — the only path
// encoded per request, so it sets the tail.
func (fx *fixture) buildMix() []request {
	ids := fx.deviceIDs()
	summary := request{ep: "summary", path: "/v1/summary", want: 200}
	page := request{ep: "devices_page", path: "/v1/devices?country=" + fx.topCountry() + "&limit=100&cursor=", want: 200, page: true}
	device := func(i int) request {
		return request{ep: "device", path: "/v1/devices/" + strconv.Itoa(ids[i]), want: 200}
	}
	udp := request{ep: "ports_udp", path: "/v1/ports/udp", want: 200}
	inm := request{ep: "notmodified", path: "/v1/summary", want: 304, conditional: true}
	return []request{
		summary, page, device(0), summary, udp,
		page, inm, summary, page, {ep: "spikes", path: "/v1/spikes", want: 200},
		summary, page, device(len(ids) / 2), udp, summary,
		{ep: "signatures", path: "/v1/signatures", want: 200}, page, inm, summary,
		{ep: "reports", path: "/v1/reports", want: 200},
	}
}

// reply is what the client learned from one request.
type reply struct {
	ns    int64
	bytes int
	ok    bool
	why   string
}

// client is one caller: it waits for each reply, checks it, and remembers the
// cursor and ETag the next request depends on. It is not safe for concurrent
// use; each goroutine owns one.
type client struct {
	send func(*http.Request) (int, http.Header, []byte, error)
	base string

	cursor string
	etag   string
	gen    uint64

	attempted, failed int
	firstFailure      string
	shed503           int
	mixedGeneration   int
}

// newClient talks to base over hc (loopback TCP, keep-alive).
func newClient(base string, hc *http.Client) *client {
	var buf bytes.Buffer
	return &client{base: base, cursor: "start", send: func(r *http.Request) (int, http.Header, []byte, error) {
		resp, err := hc.Do(r)
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header, buf.Bytes(), err
	}}
}

// newInProcessClient calls the handler directly into a recorder: the same
// requests without net/http's server loop or the loopback socket.
func newInProcessClient(h http.Handler) *client {
	return &client{base: "http://in-process", cursor: "start", send: func(r *http.Request) (int, http.Header, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code, rec.Header(), rec.Body.Bytes(), nil
	}}
}

// do issues one request of the mix, waits for the whole reply, and checks
// it: the expected status, a body on every 200, and an ETag generation that
// never goes backwards.
func (c *client) do(rq request) reply {
	c.attempted++
	url := c.base + rq.path
	if rq.page {
		url += c.cursor
	}
	hr, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return c.fail(reply{}, err.Error())
	}
	hr.Header.Set("Authorization", "Bearer "+apiToken)
	sentTag := ""
	if rq.conditional && c.etag != "" {
		sentTag = c.etag
		hr.Header.Set("If-None-Match", sentTag)
	}
	t0 := time.Now()
	status, hdr, body, err := c.send(hr)
	rp := reply{ns: time.Since(t0).Nanoseconds(), bytes: len(body)}
	if err != nil {
		return c.fail(rp, err.Error())
	}
	if status == http.StatusServiceUnavailable {
		c.shed503++
	}

	tag := hdr.Get("ETag")
	gen, tagOK := etagGeneration(tag)
	if !tagOK {
		return c.fail(rp, fmt.Sprintf("%s: bad ETag %q", rq.path, tag))
	}
	if gen < c.gen {
		c.mixedGeneration++
		return c.fail(rp, fmt.Sprintf("%s: ETag generation went back from %d to %d", rq.path, c.gen, gen))
	}
	want := rq.want
	if rq.conditional && (sentTag == "" || tag != sentTag) {
		want = http.StatusOK // nothing to revalidate against, or a swap landed in between
	}
	c.etag, c.gen = tag, gen
	if status != want {
		return c.fail(rp, fmt.Sprintf("%s: status %d, want %d", rq.path, status, want))
	}
	if status == http.StatusOK && len(body) == 0 {
		return c.fail(rp, rq.path+": empty body")
	}
	if rq.page {
		c.cursor = nextCursor(body)
	}
	rp.ok = true
	return rp
}

func (c *client) fail(rp reply, why string) reply {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = why
	}
	rp.why = why
	return rp
}

// etagGeneration parses the snapshot generation out of `"g<gen>-<digest>"`.
func etagGeneration(tag string) (uint64, bool) {
	rest, ok := strings.CutPrefix(tag, `"g`)
	if !ok {
		return 0, false
	}
	num, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(num, 10, 64)
	return gen, err == nil
}

// nextCursor pulls nextCursor out of a device page without decoding the
// page; a last page restarts the walk.
func nextCursor(body []byte) string {
	const key = `"nextCursor": "`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return "start"
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "start"
	}
	return string(rest[:j])
}
