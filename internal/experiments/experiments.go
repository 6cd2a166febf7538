// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment has a constructor returning a structured,
// renderable result, plus a registry so the CLI, tests and benchmarks
// share one implementation per artifact.
//
// Monte-Carlo sample counts default to the paper's (1000 samples for
// circuit-level figures, 10 000 for architecture-level ones) and can be
// reduced via Config for fast regression tests.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"github.com/ntvsim/ntvsim/internal/faults"
	"github.com/ntvsim/ntvsim/internal/telemetry"
)

// Config controls an experiment run.
//
// Zero means "use the paper default" for every field: a zero Seed or a
// zero sample count is replaced by the corresponding Default value
// during normalization. Negative sample counts are invalid and rejected
// by Run/RunCtx with an error rather than silently replaced.
type Config struct {
	Seed           uint64 `json:"seed"`
	CircuitSamples int    `json:"circuit_samples"` // circuit-level MC samples (paper: 1000)
	ChipSamples    int    `json:"chip_samples"`    // architecture-level MC samples (paper: 10 000)
	SearchSamples  int    `json:"search_samples"`  // MC samples inside spare/margin searches
}

// Default returns the paper's sample counts with a fixed seed.
func Default() Config {
	return Config{Seed: 20120603, CircuitSamples: 1000, ChipSamples: 10000, SearchSamples: 6000}
}

// Quick returns a reduced configuration for regression tests: the same
// experiments, two decades fewer samples.
func Quick() Config {
	return Config{Seed: 20120603, CircuitSamples: 300, ChipSamples: 1200, SearchSamples: 1200}
}

// Normalized fills zero fields from Default (the zero-means-default
// contract documented on Config) and rejects negative sample counts,
// which would otherwise drive the Monte-Carlo engines with nonsense
// bounds.
func (c Config) Normalized() (Config, error) {
	if c.CircuitSamples < 0 || c.ChipSamples < 0 || c.SearchSamples < 0 {
		return Config{}, fmt.Errorf(
			"experiments: negative sample count (circuit %d, chip %d, search %d); use 0 for the paper default",
			c.CircuitSamples, c.ChipSamples, c.SearchSamples)
	}
	d := Default()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.CircuitSamples == 0 {
		c.CircuitSamples = d.CircuitSamples
	}
	if c.ChipSamples == 0 {
		c.ChipSamples = d.ChipSamples
	}
	if c.SearchSamples == 0 {
		c.SearchSamples = d.SearchSamples
	}
	return c, nil
}

// Result is a runnable experiment outcome.
type Result interface {
	// ID returns the experiment identifier (fig1 … table4).
	ID() string
	// Render returns the human-readable reproduction of the artifact.
	Render() string
}

// Runner builds one experiment. The context carries cancellation from
// the caller (CLI signal handling, HTTP job cancellation) into the
// Monte-Carlo loops; runners that sample heavily poll it via the
// montecarlo/simd Ctx entry points and return its error when cancelled.
type Runner func(ctx context.Context, cfg Config) (Result, error)

// Kind classifies what an experiment's Monte Carlo samples: individual
// circuits (gates, FO4 chains) or whole SIMD architectures (datapaths,
// chips).
type Kind string

// Experiment kinds.
const (
	Circuit      Kind = "circuit"
	Architecture Kind = "architecture"
)

// Info is an experiment's registry metadata, served by the HTTP API's
// experiment listing and used by the sweep engine to pick sample-count
// defaults.
type Info struct {
	ID          string `json:"id"`
	Kind        Kind   `json:"kind"`
	Description string `json:"description"`

	// DefaultSamples is the paper-default count of the experiment's
	// primary Monte-Carlo knob (circuit, chip or search samples); 0 for
	// analytic experiments that do not sample.
	DefaultSamples int `json:"default_samples"`
}

// entry pairs a runner with its metadata in the registry.
type entry struct {
	info   Info
	runner Runner
}

// registry maps experiment IDs to runners and metadata, populated by
// the per-artifact files' init functions.
var registry = map[string]entry{}

func register(id string, kind Kind, defaultSamples int, description string, r Runner) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %q", id))
	}
	registry[id] = entry{
		info:   Info{ID: id, Kind: kind, Description: description, DefaultSamples: defaultSamples},
		runner: r,
	}
}

// IDs returns all experiment identifiers in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// List returns every experiment's metadata, sorted by id.
func List() []Info {
	out := make([]Info, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id].info)
	}
	return out
}

// Lookup returns the metadata of one experiment.
func Lookup(id string) (Info, bool) {
	e, ok := registry[id]
	return e.info, ok
}

// RunCtx executes the experiment with the given id under ctx. A context
// cancelled before or during the run aborts the experiment's
// Monte-Carlo sampling and returns the context's error; a context that
// is never cancelled yields results bit-identical to
// context.Background().
//
// When ctx carries telemetry — a trace (see telemetry.TraceStore) or a
// progress reporter — the run records an "experiment/<id>" span and the
// instrumented runners report per-phase spans and sample progress. An
// uninstrumented ctx adds nothing.
func RunCtx(ctx context.Context, id string, cfg Config) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Fault-injection hook; inert unless a test armed an injector.
	if err := faults.Fire(ctx, faults.SiteExperimentRun); err != nil {
		return nil, err
	}
	ctx, sp := telemetry.StartSpan(ctx, "experiment/"+id)
	defer sp.End()
	return e.runner(ctx, cfg)
}

// phase starts a named phase of an experiment run: it labels the run's
// progress reporter (surfaced by job snapshots and SSE events) and
// opens a telemetry span nested under the run's trace. Call the
// returned done func when the phase completes. Both effects are no-ops
// on an uninstrumented context.
func phase(ctx context.Context, name string) (context.Context, func()) {
	telemetry.ProgressFrom(ctx).SetPhase(name)
	ctx, sp := telemetry.StartSpan(ctx, name)
	return ctx, sp.End
}
