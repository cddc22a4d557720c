package serve

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// handler builds the daemon's API mux:
//
//	GET /healthz                  liveness + daemon-wide counters + per-link staleness
//	GET /readyz                   readiness: 503 when every link is stale
//	GET /links                    all known links, summarised, sorted
//	GET /links/{id}/elephants     the current elephant set
//	GET /links/{id}/history       recent interval summaries (?n=, ?flows=1)
//	GET /links/{id}/debug/intervals  the history ring as JSONL trace lines
//	GET /metrics                  Prometheus text exposition
//	GET /debug/pprof/...          runtime profiles (only with Config.Pprof)
func (d *Daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /links", d.handleLinks)
	mux.HandleFunc("GET /links/{id}/elephants", d.handleElephants)
	mux.HandleFunc("GET /links/{id}/history", d.handleHistory)
	mux.HandleFunc("GET /links/{id}/debug/intervals", d.handleDebugIntervals)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	if d.cfg.Pprof {
		// The daemon serves its own mux, so the pprof handlers must be
		// wired explicitly (the package's init only touches
		// http.DefaultServeMux). Index dispatches the named profiles
		// (heap, goroutine, block, …) under the subtree.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// writeJSON renders one response; encoding errors after the header is
// out are logged, not recoverable.
func (d *Daemon) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		d.cfg.Logf("serve: encoding response: %v", err)
	}
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

// Health is the /healthz response body. Healthz is liveness — it
// answers 200 whenever the process serves HTTP — but carries the
// readiness signal (Ready plus the per-link staleness rows) so one
// probe shows both.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Scheme        string  `json:"scheme"`
	IntervalSecs  float64 `json:"interval_seconds"`
	Links         int     `json:"links"`
	Readers       int     `json:"readers"`
	ReusePort     bool    `json:"reuseport"`
	Datagrams     uint64  `json:"datagrams"`
	Records       uint64  `json:"records"`
	DecodeErrors  uint64  `json:"decode_errors"`
	Draining      bool    `json:"draining"`
	// Ready mirrors /readyz: false only when links exist and every one
	// is stale beyond StaleAfterSeconds.
	Ready             bool         `json:"ready"`
	StaleAfterSeconds float64      `json:"stale_after_seconds"`
	LinkHealth        []LinkHealth `json:"link_health,omitempty"`
}

// LinkHealth is one link's staleness row in /healthz and /readyz.
type LinkHealth struct {
	ID string `json:"id"`
	// StalenessSeconds is how long since the link last sealed an
	// interval (since first sight when nothing has sealed yet).
	StalenessSeconds float64 `json:"staleness_seconds"`
	Stale            bool    `json:"stale"`
}

// readiness evaluates the staleness rule: a daemon with no links yet is
// ready (waiting for exporters is the normal cold state); once links
// exist it stays ready while at least one still seals intervals within
// StaleAfter.
func (d *Daemon) readiness(now time.Time) (ready bool, rows []LinkHealth) {
	links := d.store.links()
	ready = len(links) == 0
	rows = make([]LinkHealth, 0, len(links))
	for _, ls := range links {
		st := ls.Staleness(now)
		stale := st > d.cfg.StaleAfter
		if !stale {
			ready = true
		}
		rows = append(rows, LinkHealth{ID: ls.id, StalenessSeconds: st.Seconds(), Stale: stale})
	}
	return ready, rows
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	datagrams, records, decodeErrors := d.ingestTotals()
	ready, rows := d.readiness(time.Now())
	d.writeJSON(w, http.StatusOK, Health{
		Status:            "ok",
		UptimeSeconds:     time.Since(d.started).Seconds(),
		Scheme:            d.cfg.Scheme.String(),
		IntervalSecs:      d.cfg.Interval.Seconds(),
		Links:             len(rows),
		Readers:           len(d.readers),
		ReusePort:         d.ReusePort(),
		Datagrams:         datagrams,
		Records:           records,
		DecodeErrors:      decodeErrors,
		Draining:          d.draining.Load(),
		Ready:             ready,
		StaleAfterSeconds: d.cfg.StaleAfter.Seconds(),
		LinkHealth:        rows,
	})
}

// Readiness is the /readyz response body.
type Readiness struct {
	Ready             bool         `json:"ready"`
	StaleAfterSeconds float64      `json:"stale_after_seconds"`
	Links             []LinkHealth `json:"links"`
}

// handleReadyz is the readiness probe: 200 while the daemon is doing
// its job (no links yet, or at least one link sealing intervals), 503
// when links exist and every one has gone StaleAfter without a seal —
// the pipeline is wedged or the exporters all went away.
func (d *Daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, rows := d.readiness(time.Now())
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	d.writeJSON(w, status, Readiness{
		Ready:             ready,
		StaleAfterSeconds: d.cfg.StaleAfter.Seconds(),
		Links:             rows,
	})
}

// LinksPage is the /links response body: the ingest front-end's
// per-reader status (datagram/record/decode-error counters, effective
// kernel receive buffer) plus every known link, summarised and sorted.
type LinksPage struct {
	ReusePort bool           `json:"reuseport"`
	Readers   []ReaderStatus `json:"readers"`
	Links     []LinkSummary  `json:"links"`
	// Pipelines carries live-pipeline internals the store summaries
	// don't know: backpressure stalls and stage overlap.
	Pipelines []LinkPipeline `json:"pipelines"`
}

// LinkPipeline is one link's live-pipeline row in /links: how many
// times a reader had to wait for a free batch of the record queue, and
// the last interval's classify/accumulate stage overlap.
type LinkPipeline struct {
	Link              string `json:"link"`
	Stalls            uint64 `json:"stalls"`
	StageOverlapNanos int64  `json:"stage_overlap_nanos"`
}

func (d *Daemon) handleLinks(w http.ResponseWriter, r *http.Request) {
	rows := d.store.readings()
	page := LinksPage{
		ReusePort: d.ReusePort(),
		Readers:   d.readerStatus(),
		Links:     make([]LinkSummary, len(rows)),
		Pipelines: make([]LinkPipeline, len(rows)),
	}
	for i, row := range rows {
		page.Links[i] = row.LinkSummary
		page.Pipelines[i] = LinkPipeline{Link: row.ID, Stalls: row.stalls, StageOverlapNanos: int64(row.overlap)}
	}
	d.writeJSON(w, http.StatusOK, page)
}

// linkState resolves the {id} path value, answering 404 on a miss.
func (d *Daemon) linkState(w http.ResponseWriter, r *http.Request) *LinkState {
	id := r.PathValue("id")
	ls := d.store.Get(id)
	if ls == nil {
		d.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown link " + strconv.Quote(id)})
	}
	return ls
}

// Elephants is the /links/{id}/elephants response body: the elephant
// set of the most recent closed interval. Interval is -1 until the
// link's first interval closes.
type Elephants struct {
	Link         string    `json:"link"`
	Interval     int       `json:"interval"`
	Start        time.Time `json:"start"`
	ThresholdBps float64   `json:"threshold_bps"`
	Count        int       `json:"count"`
	Flows        []string  `json:"flows"`
}

func (d *Daemon) handleElephants(w http.ResponseWriter, r *http.Request) {
	ls := d.linkState(w, r)
	if ls == nil {
		return
	}
	sum, set, ok := ls.Current()
	resp := Elephants{Link: ls.ID(), Interval: -1, Flows: []string{}}
	if ok {
		resp.Interval = sum.Interval
		resp.Start = sum.Start
		resp.ThresholdBps = sum.ThresholdBps
		resp.Count = set.Len()
		resp.Flows = make([]string, 0, set.Len())
		for _, p := range set.Flows() {
			resp.Flows = append(resp.Flows, p.String())
		}
	}
	d.writeJSON(w, http.StatusOK, resp)
}

// HistoryPage is the /links/{id}/history response body: up to ?n= (all
// retained when unset) most recent interval summaries, oldest first,
// with per-interval elephant sets when ?flows=1.
type HistoryPage struct {
	Link     string            `json:"link"`
	Capacity int               `json:"capacity"`
	Entries  []IntervalSummary `json:"entries"`
}

// handleDebugIntervals serves the link's history ring as JSONL, oldest
// interval first: one IntervalTrace per retained interval — the entries
// /history summarises, with the stage timings, raw threshold, seal-time
// watermark lag and stage overlap recorded beside them. The lines are
// copied out under the link's lock and encoded outside it, so a slow
// reader never stalls the link's next seal.
func (d *Daemon) handleDebugIntervals(w http.ResponseWriter, r *http.Request) {
	ls := d.linkState(w, r)
	if ls == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, tr := range ls.traces() {
		if err := enc.Encode(tr); err != nil {
			d.cfg.Logf("serve: writing debug intervals: %v", err)
			return
		}
	}
}

func (d *Daemon) handleHistory(w http.ResponseWriter, r *http.Request) {
	ls := d.linkState(w, r)
	if ls == nil {
		return
	}
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			d.writeJSON(w, http.StatusBadRequest, errorBody{Error: "n must be a positive integer"})
			return
		}
		n = v
	}
	includeFlows := r.URL.Query().Get("flows") == "1"
	d.writeJSON(w, http.StatusOK, HistoryPage{
		Link:     ls.ID(),
		Capacity: d.cfg.History,
		Entries:  ls.History(n, includeFlows),
	})
}
