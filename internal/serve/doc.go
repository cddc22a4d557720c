// Package serve is the live monitoring subsystem: a resident daemon
// that ingests NetFlow v5 over UDP, classifies elephants per link as
// measurement intervals close, and answers "who are the elephants right
// now" over HTTP — the deployment the paper implies, where the
// two-feature classification runs continuously at a POP rather than
// over a finite trace.
//
// Data flows through the daemon in one direction:
//
//	UDP sockets → decode → demux by exporter (source IP @ engine ID)
//	  → attribute records against the BGP table
//	  → per-link engine.LivePipeline (StreamAccumulator → core.Pipeline)
//	  → the link's LinkState, the pipeline's result hook (current
//	    ElephantSet, history ring, ingest counters)
//	  → HTTP API (/links, /links/{id}/elephants, /links/{id}/history,
//	    /links/{id}/debug/intervals, /healthz, /readyz, /metrics)
//
// Ingest is sharded across Config.Readers goroutines. Each reader owns
// its own SO_REUSEPORT socket bound to the same address, and the kernel
// hashes every sender's 4-tuple to a fixed socket. A link is keyed by
// source address and engine ID, not source port, so one reader sees all
// of a link's datagrams, in arrival order, only when the exporter sends
// from one source port. An exporter that spreads one engine ID over
// several sockets (nfreplay -single-link) is fed by several readers at
// once: the link's pipeline accepts that (SendBatch is safe from several
// goroutines), but its datagrams can reach it out of arrival order. A
// platform without the option runs one reader on one socket. Each reader
// reuses a private decode scratch (netflow.DecodeInto) and attribution
// batch.
//
// A link is one LinkState: it holds the link's pipeline and is that
// pipeline's result hook. The Store is the one set of links: one map by
// ID under one mutex, so a creation is one insert, an HTTP lookup by ID
// one read, and every ordered walk (/links, /metrics, /healthz, /readyz,
// DrainIngest) copies the links out and sorts them by ID. Each reader
// keeps its own map from wire key to link, filled from the Store on
// first sight, so a datagram for a link its reader has seen travels
// read → decode → dispatch without allocating or taking a lock. A link
// whose pipeline cannot be built is added once, failed, and its
// datagrams are counted as dropped.
//
// Each link's pipeline runs on its own worker behind a bounded record
// queue that a datagram's records cross as one batch — one copy and one
// queue operation per datagram, not per record — so ingest and
// classification of different links never serialise on each other, and
// the engine's determinism contract (single consumer, fresh pipeline
// state per link) holds for however long the daemon lives. Memory per
// link is the accumulator window plus the fixed-capacity history ring
// (208 bytes an interval, allocated at the link's first seal, so a link
// that never seals holds none), independent of uptime: each link's pipeline
// owns a core.FlowTable interning its prefixes into dense IDs, the whole
// per-interval path runs on ID-indexed columns (one hash per decoded
// record, none per flow per interval), and classifier eviction recycles
// the IDs of long-idle flows, bounding the identity table by the live
// flow set.
//
// A sealed interval is recorded once. The pipeline hands the link's
// hook the interval whole (engine.Sealed: result, counters, the step's
// timings, seal lag), and the hook makes one call (LinkState.record)
// under the link's one lock: it computes the interval's churn against
// the previous elephant set — the only place churn is computed — and
// writes one entry into the history ring, holding the summary, the
// owning elephant set and the numbers only the pipeline knows (stage
// timings, raw θ(t), seal-time watermark lag, stage overlap).
// /links/{id}/history and /links/{id}/debug/intervals (JSONL of
// IntervalTrace) are two renderings of that ring, so Config.History
// bounds both and they cannot disagree about an interval. The same call
// folds the step's stage timings and the stage overlap into the link's
// histograms and the churn into its promote/demote totals.
//
// The daemon is itself observed, and /metrics keeps nothing of its own.
// A scrape reads each link once, under the link's read-lock once: its
// ingest and stream counters, the newest ring entry, the stage
// histograms and churn totals, and its pipeline's watermark lag and
// queue stalls. Every per-link family lists all links in ID order — so
// a quiet daemon's scrapes are byte-identical; the tests lint every page
// they scrape with reporttest.LintExposition. /healthz is pure liveness
// (always 200, with per-link staleness detail); /readyz is readiness —
// 503 once links exist and every one has gone longer than
// Config.StaleAfter (default 3× the interval) without sealing.
// Config.Pprof optionally mounts net/http/pprof under /debug/pprof/ on
// the same mux. All instrumentation on the per-interval path is
// allocation-free after a link's first seal, which allocates its ring
// (fields of the LinkState and the ring, under the one lock a seal
// already takes); rendering happens on scrape goroutines.
//
// Shutdown is graceful and two-phase: DrainIngest consumes what the
// kernel has buffered on every socket, closes every link's open
// intervals (the same flush end-of-stream batch runs perform) and
// records final counters in the store — the API keeps serving the
// completed run — then Shutdown stops the HTTP server. cmd/elephantd is
// the thin binary over this package; cmd/nfreplay feeds it synthetic
// traffic for smoke tests, demos and saturation runs
// (scripts/saturation.sh).
package serve
