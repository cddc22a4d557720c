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
//	  → sharded Store (current ElephantSet, interval-summary ring,
//	    ingest counters)
//	  → HTTP API (/links, /links/{id}/elephants, /links/{id}/history,
//	    /links/{id}/debug/intervals, /healthz, /readyz, /metrics)
//
// Ingest is sharded across Config.Readers goroutines. Each reader owns
// its own SO_REUSEPORT socket bound to the same address, and the kernel
// hashes every exporter's 4-tuple to a fixed socket — so exactly one
// reader ever sees a given link's datagrams and per-link record order
// is preserved without any cross-reader coordination; a platform
// without the option runs one reader on one socket. Each reader reuses
// a private decode scratch (netflow.DecodeInto) and attribution batch, and link
// lookup is one atomic load on a copy-on-write map, so a datagram for
// an existing link travels read → decode → dispatch without allocating
// or taking a lock. Each link's pipeline runs on its own worker behind a
// bounded record queue that a datagram's records cross as one batch — one
// copy and one queue operation per datagram, not per record — so ingest
// and classification of different links
// never serialise on each other, and the engine's determinism contract
// (single consumer, fresh pipeline state per link) holds for however
// long the daemon lives. Memory per link is the
// accumulator window plus the fixed-capacity history ring, independent
// of uptime: each link's pipeline owns a core.FlowTable interning its
// prefixes into dense IDs, the whole per-interval path runs on
// ID-indexed columns (one hash per decoded record, none per flow per
// interval), and classifier eviction recycles the IDs of long-idle
// flows, bounding the identity table by the live flow set.
//
// The daemon is itself observed. Each link carries an obs.LinkMetrics
// registered as its pipeline's core.StageObserver — stage-latency
// histograms (detect/classify/step), promote/demote churn counters,
// raw-threshold and watermark-lag gauges, all labelled by link — and an
// obs.FlightRecorder, a fixed ring of per-interval traces journalled as
// intervals seal. /metrics renders the store-backed families plus the
// obs registry (byte-stable between scrapes on a quiet daemon, linted
// by report.LintExposition / cmd/explint); /links/{id}/debug/intervals
// serves the flight ring as JSONL, and cmd/elephantd also dumps every
// ring to stderr on SIGUSR1. /healthz is pure liveness (always 200,
// with per-link staleness detail); /readyz is readiness — 503 once
// links exist and every one has gone longer than Config.StaleAfter
// (default 3× the interval) without sealing. Config.Pprof optionally
// mounts net/http/pprof under /debug/pprof/ on the same mux. All
// instrumentation on the per-interval path is allocation-free (atomics
// and pre-allocated rings); rendering happens on scrape goroutines.
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
