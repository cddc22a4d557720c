// Package repro reproduces "A Pragmatic Definition of Elephants in
// Internet Backbone Traffic" (Papagiannaki, Taft, Bhattacharyya, Thiran,
// Salamatian, Diot — IMC 2002) as a self-contained Go system.
//
// The paper's contribution — elephant-flow classification combining a
// volume threshold (detected per measurement interval via the "aest"
// heavy-tail estimator or the "β-constant load" rule, then EWMA-smoothed)
// with the "latent heat" persistence metric — lives in internal/core.
// Its interval hot path is columnar: internal/agg emits each interval as
// a sorted core.FlowSnapshot (prefix column + bandwidth column, reused
// across intervals) that detectors and classifiers consume directly, and
// internal/engine runs one classification pipeline per monitored link
// concurrently on a worker pool with deterministic, seed-reproducible
// output.
//
// Schemes are first-class: internal/scheme is a registry of every
// detector and classifier — the paper's and the internal/baseline
// alternatives (fixed threshold, top-K, Misra–Gries, Space-Saving) —
// addressable through the spec grammar
// "detector[:k=v,...]+classifier[:k=v,...]" (e.g.
// "load:beta=0.8+latent:window=12", "aest", "misragries:k=100"). A
// parsed spec compiles to a fresh-instances core.Config factory, so any
// registered scheme runs through the engine (including the RunMatrix
// specs×links sweeps), the experiments harnesses and every CLI -scheme
// flag, with batch/stream equivalence pinned registry-wide by
// scheme_matrix_test.go.
//
// Ingestion is streaming-first: every substrate (pcap captures, NetFlow
// v5 streams, the synthetic generator's incremental mode) is normalised
// to the unified agg.RecordSource iterator of prefix-attributable
// records, and agg.StreamAccumulator windows any such stream into
// classified intervals with memory bounded by its ring of open
// intervals — not by trace length — pushing each closed interval into
// core.Pipeline.StepSnapshot as capture time advances
// (engine.MultiLinkEngine.RunStreaming scales this to many live links).
// Because the batch agg.Series and the accumulator share one
// apportioning arithmetic, streaming classification is byte-identical
// to batch classification on the same records; streaming_test.go pins
// that contract on pcap and NetFlow captures, and internal/engine's
// FuzzEquivalence on generated record sequences.
//
// Flow identity is interned: each pipeline and each stream accumulator
// owns a core.FlowTable mapping every prefix it sees to a dense uint32
// ID, and the
// whole interval hot path — accumulator ring slots, the latent-heat
// classifier's per-flow windows (incrementally summed, O(1) per flow)
// — runs on flat ID-indexed columns instead of prefix-keyed maps. Snapshots carry the ID column from producer to
// classifier, so steady-state classification performs at most a single
// hash per record at ingest — none for a NetFlow record, whose
// longest-prefix-match answer doubles as a verified key into the table
// — and none per flow per interval. Each table has one owner, which
// recycles the IDs of flows it has let go (the accumulator after a
// grace period of quiet closes, the classifier at eviction), keeping
// resident-daemon memory bounded by the live flow set; a column that
// crosses to another owner is translated into its table (FillIDs).
// Equivalence of the ID path with the prefix-keyed semantics is pinned
// by dual-implementation tests in internal/core and the
// eviction/recycling stream≡batch test in internal/engine.
// Performance has one record: bench/ (a module of its own, declared in
// BENCHMARK.json) measures four workloads end to end and layer by
// layer. The Benchmark functions beside the tests run once each in CI
// so that they keep working, and the zero-allocation pins
// (testing.AllocsPerRun in alloc_test.go and the packages) are tests.
//
// The streaming stack also runs resident: internal/serve is a live
// monitoring daemon (cmd/elephantd) that collects NetFlow v5 datagrams
// on a UDP socket, demultiplexes them by exporter into long-lived
// per-link pipelines (engine.LivePipeline), and answers "who are the
// elephants right now" over HTTP — current sets, a ring of recent
// interval summaries, and Prometheus metrics — with graceful drain on
// shutdown. cmd/nfreplay feeds it synthetic traffic through the
// router-model flow cache for demos and smoke tests, and a loopback
// test pins that what the API serves equals what the batch pipeline
// computes from the same datagrams.
//
// Everything the methodology needs to run is implemented here as
// well: a frame decoder and builder (internal/packet), a pcap
// file reader/writer (internal/pcap), a BGP table with longest-prefix
// match (internal/bgp), the statistical machinery including the
// Crovella–Taqqu scaling estimator (internal/stats), a synthetic
// backbone workload generator standing in for the proprietary Sprint
// OC-12 traces (internal/trace), the per-prefix measurement pipeline
// (internal/agg), evaluation metrics (internal/analysis) and the
// reproduction record (internal/experiments).
//
// The paper's figures and claims are computed in one place:
// cmd/experiments iterates internal/experiments' section table, which
// classifies through one run helper and condenses every run with one
// summary; its stdout is pinned byte for byte at reduced scale by
// cmd/experiments' golden test, and the claims' directions are asserted
// by internal/experiments' tests:
//
//	go run ./cmd/experiments [-quick]
//
// See ARCHITECTURE.md for the layer stack, the engine's entry points,
// the snapshot ownership contract and the Reproduction section.
package repro
