package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/runner"
	"repro/internal/service"
)

// serveBench is the set-up of serve-corpus: the 25 generated corpus
// apps, each also prepared in process for the output checks.
type serveBench struct {
	all []*workCase
	ids identity
}

func (b *serveBench) cases() []*workCase { return b.all }

// setupServe generates the corpus apps, prepares each spec, starts a
// daemon and runs one untimed warm-up extraction through it.
func setupServe(o options, t *tally) (bench, error) {
	cases, err := corpusCases()
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		if c.prep, err = core.Prepare(c.spec); err != nil {
			return nil, err
		}
	}
	b := &serveBench{all: cases, ids: identity{}}
	warm := func(int) int64 { return deriveSeed(o.seed, warmupSalt) }
	st, err := runPass(o.out, cases[:1], b.ids, warm, true, t)
	if err != nil {
		return nil, err
	}
	if st.failed {
		return nil, fmt.Errorf("warm-up extraction failed")
	}
	return b, nil
}

// serveSeed is the noise seed of case i in pass j. Passes alternate
// between two seeds per app, so every pass after the second repeats an
// earlier pass's seeds and the identity check compares their artifacts
// across two daemons.
func serveSeed(seed int64, i, pass int) int64 {
	return deriveSeed(seed, int64(i), int64(pass%2))
}

// passStats accumulates one pass of requests.
type passStats struct {
	cold, hits        []float64
	coldSecs, cpuSecs float64
	points            int
	sweepLines        int
	sweepSecs         float64
	modelBytes        int
	sweepBytes        int
	responses, cached int
	wall              time.Duration
	scrape            map[string]float64
	failed            bool
	// coldByCase is each case's cold extraction latency in ms.
	coldByCase map[string]float64
}

// measureServe runs whole passes until the time is up. Each pass starts a
// fresh daemon over a fresh cache directory, so every first request of
// an app misses both caches, and sends the apps' requests from one
// client in a closed loop.
func measureServe(o options, bb bench, t *tally) (*report, error) {
	b := bb.(*serveBench)
	var cold, hits, rates, sweepRates, cpuPerPoint []float64
	rss := newPeakRSS()
	deadline := time.Now().Add(seconds(o.seconds))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		seedOf := func(i int) int64 { return serveSeed(o.seed, i, pass) }
		rss.start()
		st, err := runPass(o.out, b.all, b.ids, seedOf, true, t)
		rss.stop()
		if !t.op(err) || st.failed {
			continue
		}
		cold = append(cold, st.cold...)
		hits = append(hits, st.hits...)
		rates = append(rates, float64(st.points)/st.coldSecs)
		sweepRates = append(sweepRates, float64(st.sweepLines)/st.sweepSecs)
		cpuPerPoint = append(cpuPerPoint, 1000*st.cpuSecs/float64(st.points))
	}
	if len(cold) == 0 {
		return nil, fmt.Errorf("no pass succeeded")
	}
	rep := newReport()
	rep.latencies("extract_ms", cold)
	rep.add("points_per_s", "1/s", rates...)
	rep.add("sweep_points_per_s", "1/s", sweepRates...)
	rep.addMean("hit_ms_mean", "ms", hits...)
	rep.add("cpu_ms_per_point", "ms", cpuPerPoint...)
	rss.report(rep)
	b.checkInProcess(o, t)
	return rep, nil
}

// runPass sends every case's requests through one fresh daemon under
// root; case i uses the noise seed seedOf(i). The pass ends by scraping
// /metrics.
func runPass(root string, cases []*workCase, ids identity, seedOf func(int) int64, journal bool, t *tally) (*passStats, error) {
	d, err := startDaemon(root, journal, cases)
	if err != nil {
		return nil, err
	}
	st := &passStats{coldByCase: map[string]float64{}}
	start := time.Now()
	for i, c := range cases {
		requestCase(d, c, ids, seedOf(i), st, t)
	}
	st.wall = time.Since(start)
	st.scrape, err = d.scrape()
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err == nil && journal && st.scrape["perftaintd_journal_open_jobs"] != 0 {
		err = fmt.Errorf("journal holds %g open jobs after every request finished", st.scrape["perftaintd_journal_open_jobs"])
	}
	return st, err
}

// requestCase sends one app's requests: a cold streamed extraction, a
// repeat that the registry answers, a GET by key, and a sweep over the
// app's design. Each request is one operation of the tally; its checks
// are part of it. A failed request ends the app's turn.
func requestCase(d *daemon, c *workCase, ids identity, seed int64, st *passStats, t *tally) {
	ok := func(err error) bool {
		if !t.op(err) {
			st.failed = true
			return false
		}
		return true
	}
	cfg := c.withSeed(seed)
	wantKey := modelreg.Key(c.prep.Digest, cfg)
	coldBody, err1 := json.Marshal(modelRequest(c, seed, true))
	repeatBody, err2 := json.Marshal(modelRequest(c, seed, false))
	sweepBody, err3 := json.Marshal(sweepRequest(c))
	if !ok(errors.Join(err1, err2, err3)) {
		return
	}

	cpu0 := cpuSeconds()
	lat, lines, err := d.stream("/v1/models", coldBody, resultLine)
	cpu := cpuSeconds() - cpu0
	var cold *wireModel
	if err == nil {
		cold, err = checkModelStream(lines)
	}
	if err == nil {
		err = checkModelResponse(c, cfg, wantKey, cold, false, nil)
	}
	if err == nil {
		err = ids.check(c, seed, artifact{key: cold.Key, body: cold.ModelSet})
	}
	if !ok(err) {
		return
	}
	st.cold = append(st.cold, ms(lat))
	st.coldSecs += lat.Seconds()
	st.cpuSecs += cpu
	st.points += len(c.cfgs)
	st.modelBytes += len(cold.ModelSet)
	st.responses++
	st.coldByCase[c.name] = ms(lat)

	for _, req := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/models", repeatBody},
		{http.MethodGet, "/v1/models/" + wantKey, nil},
	} {
		lat, raw, err := d.call(req.method, req.path, req.body)
		var hit wireModel
		if err == nil {
			err = json.Unmarshal(raw, &hit)
		}
		if err == nil {
			err = checkModelResponse(c, cfg, wantKey, &hit, true, cold.ModelSet)
		}
		if !ok(err) {
			return
		}
		st.hits = append(st.hits, ms(lat))
		st.responses++
		st.cached++
	}

	lat, lines, err = d.stream("/v1/sweep", sweepBody, nil)
	if err == nil {
		err = checkSweep(c, lines)
	}
	if !ok(err) {
		return
	}
	st.sweepLines += len(lines)
	st.sweepSecs += lat.Seconds()
	for _, l := range lines {
		st.sweepBytes += len(l)
	}
}

func modelRequest(c *workCase, seed int64, stream bool) api.ModelRequest {
	req := api.ModelRequest{
		App: c.name,
		// Explicit model parameters: the daemon rejects empty params
		// although the API documents a default (see README.md).
		Params:   c.cfg.Params,
		Defaults: c.cfg.Defaults,
		Reps:     c.cfg.Reps,
		Seed:     seed,
		RelNoise: c.cfg.RelNoise,
		Batch:    c.cfg.Batch,
		Metrics:  c.cfg.Metrics,
		Stream:   stream,
	}
	for _, ax := range c.cfg.Axes {
		req.Axes = append(req.Axes, api.SweepAxis{Param: ax.Param, Values: ax.Values})
	}
	return req
}

func sweepRequest(c *workCase) api.SweepRequest {
	req := api.SweepRequest{App: c.name, Defaults: c.cfg.Defaults}
	for _, ax := range c.cfg.Axes {
		req.Axes = append(req.Axes, api.SweepAxis{Param: ax.Param, Values: ax.Values})
	}
	return req
}

// wireModel decodes a model response or stream line, keeping the
// ModelSet as the exact bytes the daemon sent.
type wireModel struct {
	Seq      int64           `json:"seq"`
	Type     string          `json:"type"`
	Key      string          `json:"key"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error"`
	ModelSet json.RawMessage `json:"model_set"`
}

// resultLine reports whether a model stream line is the terminal result.
func resultLine(line []byte) bool {
	head := line
	if len(head) > 64 {
		head = head[:64]
	}
	return bytes.Contains(head, []byte(`"type":"result"`))
}

// checkModelStream checks a streamed extraction: monotone seq from 1, no
// error line, and a result line last.
func checkModelStream(lines [][]byte) (*wireModel, error) {
	var last wireModel
	for i, l := range lines {
		last = wireModel{}
		if err := json.Unmarshal(l, &last); err != nil {
			return nil, fmt.Errorf("model stream line %d: %w", i+1, err)
		}
		if last.Seq != int64(i+1) {
			return nil, fmt.Errorf("model stream line %d has seq %d", i+1, last.Seq)
		}
		if last.Type == "error" || last.Error != "" {
			return nil, fmt.Errorf("model stream error line: %s", last.Error)
		}
	}
	if len(lines) == 0 || last.Type != "result" {
		return nil, fmt.Errorf("model stream of %d lines ended without a result line", len(lines))
	}
	return &last, nil
}

// checkModelResponse checks one model response against the in-process
// expectations: registry key, provenance, and for a hit the exact bytes
// of the cold response.
func checkModelResponse(c *workCase, cfg modelreg.Config, wantKey string, got *wireModel, cached bool, coldBody []byte) error {
	if got.Key != wantKey {
		return fmt.Errorf("%s: response key %s, in-process key %s", c.name, got.Key, wantKey)
	}
	if got.Cached != cached {
		return fmt.Errorf("%s: response cached=%v, want %v", c.name, got.Cached, cached)
	}
	if coldBody != nil {
		// Non-streamed responses are indented; compare compacted bytes.
		var compact bytes.Buffer
		if err := json.Compact(&compact, got.ModelSet); err != nil {
			return fmt.Errorf("%s: registry hit ModelSet: %w", c.name, err)
		}
		if !bytes.Equal(compact.Bytes(), coldBody) {
			return fmt.Errorf("%s: registry hit bytes differ from the cold response", c.name)
		}
		return nil
	}
	var set modelreg.ModelSet
	if err := json.Unmarshal(got.ModelSet, &set); err != nil {
		return fmt.Errorf("%s: decode ModelSet: %w", c.name, err)
	}
	return c.checkArtifact(cfg, &set)
}

// checkSweep checks a sweep stream: one line per design point in design
// order, monotone seq from 1, each with a result and no error.
func checkSweep(c *workCase, lines [][]byte) error {
	if len(lines) != len(c.cfgs) {
		return fmt.Errorf("%s: sweep returned %d lines for %d design points", c.name, len(lines), len(c.cfgs))
	}
	for i, l := range lines {
		var sl api.SweepLine
		if err := json.Unmarshal(l, &sl); err != nil {
			return fmt.Errorf("%s: sweep line %d: %w", c.name, i+1, err)
		}
		switch {
		case sl.Seq != int64(i+1):
			return fmt.Errorf("%s: sweep line %d has seq %d", c.name, i+1, sl.Seq)
		case sl.Index != i:
			return fmt.Errorf("%s: sweep line %d has index %d", c.name, i+1, sl.Index)
		case sl.Error != "":
			return fmt.Errorf("%s: sweep point %d: %s", c.name, i, sl.Error)
		case sl.Result == nil:
			return fmt.Errorf("%s: sweep point %d carries no result", c.name, i)
		}
	}
	return nil
}

// checkInProcess extracts every corpus app in process at the first
// pass's seeds. Each sample must match the analytic iteration totals,
// and each artifact must equal, byte for byte, what the daemon served.
func (b *serveBench) checkInProcess(o options, t *tally) {
	r := runner.New()
	for i, c := range b.all {
		seed := serveSeed(o.seed, i, 0)
		x := extractCase(c, r, seed, t)
		if !t.op(x.err) {
			continue
		}
		body, err := json.Marshal(x.ms)
		if err == nil {
			err = x.checkErr
		}
		if err == nil {
			err = b.ids.check(c, seed, artifact{key: x.ms.Key, body: body})
		}
		t.op(err)
	}
}

// daemon is a loopback service.Server inside the benchmark process with
// a client limited to one connection.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
	client *http.Client
}

// startDaemon serves the cases' apps from a fresh cache directory under
// root, with the journal on or off.
func startDaemon(root string, journal bool, cases []*workCase) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "cache-")
	if err != nil {
		return nil, err
	}
	reg := make(map[string]service.App, len(cases))
	for _, c := range cases {
		reg[c.name] = c.app
	}
	srv, err := service.NewServer(service.Options{CacheDir: dir, DisableJournal: !journal, Apps: reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the daemon down, waits for its server goroutine and
// removes its cache directory.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.srv.Close()
	d.client.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *daemon) send(method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// call sends one request and reads the whole body; the latency runs to
// the last byte.
func (d *daemon) call(method, path string, body []byte) (time.Duration, []byte, error) {
	start := time.Now()
	resp, err := d.send(method, path, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return time.Since(start), raw, err
}

// stream posts body and reads the NDJSON response line by line. The
// latency runs to the first line until reports true, or to the end of
// the stream when until is nil.
func (d *daemon) stream(path string, body []byte, until func([]byte) bool) (time.Duration, [][]byte, error) {
	start := time.Now()
	resp, err := d.send(http.MethodPost, path, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var lat time.Duration
	var lines [][]byte
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
			if lat == 0 && until != nil && until(line) {
				lat = time.Since(start)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, lines, err
		}
	}
	if lat == 0 {
		lat = time.Since(start)
	}
	return lat, lines, nil
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (d *daemon) scrape() (map[string]float64, error) {
	_, raw, err := d.call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}
