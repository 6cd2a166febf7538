// Package ntvsim reproduces "Process Variation in Near-Threshold Wide
// SIMD Architectures" (Seo et al., DAC 2012) as a production-quality Go
// library and service: calibrated device and variation models, a
// deterministic Monte-Carlo engine, the 128-wide Diet SODA architecture
// study, the three variation-tolerance techniques, a benchmark harness
// regenerating every table and figure of the paper's evaluation, and an
// HTTP daemon serving all of it with caching and cancellation.
//
// # Package map
//
// The implementation lives under internal/, the runnable tools under
// cmd/ and examples/. The root package holds only the per-artifact
// benchmark harness (bench_test.go).
//
//	internal/device      transregional gate delay, leakage, sensitivities
//	internal/variation   RDF/LER/D2D variation sampling (die → lane → gate)
//	internal/tech        calibrated 90/45/32/22 nm nodes + paper anchors
//	internal/circuit     inverter chains, timing DAGs, adders, multiplier
//	internal/rng         splittable deterministic PRNG sub-streams
//	internal/montecarlo  deterministic parallel MC engine (ctx-cancellable)
//	internal/stats       moments, quantiles and their CIs, histograms, KS,
//	                     binomial CDF, Gauss–Hermite and Simpson rules
//	internal/simd        lane/chip delay sampling of the 128-wide datapath
//	internal/sparing     spare-lane sizing over a drawn sample, placement
//	internal/margin      voltage-margin search, combined plans
//	internal/power       energy-per-op, overhead models
//	internal/xram        XRAM swizzle crossbar with fault bypass
//	internal/soda        Diet SODA PE functional simulator + kernels
//	internal/timingerr   timing-error injection and recovery policies
//	internal/ssta        the one chip-delay law: the sweep engine's SSTA
//	                     estimator (mode ssta/auto), the tabulated
//	                     inverse internal/simd samples, Clark moment
//	                     algebra (docs/SSTA.md)
//	internal/corners     corner signoff with OCV derates
//	internal/yield       parametric yield-vs-clock curves
//	internal/importance  rare-event importance sampler: defensive-mixture
//	                     proposals, self-normalized weighted estimators,
//	                     ESS diagnostics (docs/SAMPLING.md)
//	internal/experiments one constructor per paper artifact + registry
//	internal/jobs        bounded worker pool, per-job cancellation
//	internal/sweep       sharded parameter-sweep engine, MC/IS twin kernels
//	internal/resultcache content-addressed LRU for experiment results
//	internal/telemetry   stdlib-only metrics, spans and progress reporters
//	internal/faults      deterministic fault injection for robustness tests
//	internal/memo        bounded process-wide memo for derived tables
//	internal/optimize, internal/report   numerical/rendering substrate
//
//	cmd/ntvsim      CLI: regenerate any/all tables and figures, run sweeps
//	cmd/ntvsimd     HTTP daemon: job+sweep API, result cache, metrics, pprof
//	cmd/sodarun     run kernels on the PE simulator
//	cmd/calibrate   re-fit device parameters to the paper anchors
//
// # Data flow
//
// A batch run flows bottom-up through four layers:
//
//	tech ──► device+variation ──► montecarlo ──► experiments
//	 │            │                   │              │
//	 │   gate/chain delay laws   seeded parallel   fig1…table4
//	 │   under RDF/LER/D2D       sampling, bit-    constructors,
//	 │   at each node/Vdd        identical for     registry, CSV/
//	 │                           any GOMAXPROCS    JSON rendering
//	 └── calibrated anchors (Figure 1, Table 1 of the paper)
//
// Architecture-level experiments route through internal/simd, which
// lifts the chain-delay law to lane and chip level by max-statistics,
// and through sparing/margin/power for the Section-4 tolerance
// techniques.
//
// The service layer inverts the entry point but reuses the same stack:
//
//	cmd/ntvsimd ──► internal/jobs ──► experiments.RunCtx ──► …
//	     │               │
//	     │          per-job context; cancellation reaches the
//	     │          montecarlo loops (polled per 64-sample chunk)
//	     └── internal/resultcache: (id, normalized Config) → Result,
//	         so identical queries never recompute
//
// # Determinism
//
// Every Monte-Carlo result is a pure function of (experiment id,
// Config): sample index i draws from an rng sub-stream derived from
// (seed, i), so results are bit-identical across worker counts and
// scheduling orders, cancellation-aware entry points included. This is
// what makes golden tests stable and result caching sound.
//
// The importance sampler extends this contract to weighted
// estimation: rare-event tail-yield kernels come in MC/IS twin pairs
// sharing one estimand, and a sharded importance-sampling sweep
// merges byte-identical to a serial run (docs/SAMPLING.md is the
// statistical contract).
//
// Start with README.md, DESIGN.md (system inventory, modeling
// decisions, per-experiment index), EXPERIMENTS.md (paper-vs-measured
// for every artifact), docs/API.md (the HTTP surface) and
// docs/SAMPLING.md (the estimator contract).
package ntvsim
