// Package xram is a functional model of the XRAM swizzle crossbar
// (Satpathy et al., VLSI'11) used by Diet SODA as its SIMD shuffle
// network and — in this study — as the re-routing fabric that lets
// globally placed spare functional units replace arbitrary faulty SIMD
// lanes (Appendix D).
//
// The physical XRAM stores several shuffle configurations inside the
// SRAM cells at its crosspoints and selects one per cycle. The model
// mirrors that: a Crossbar holds a set of configuration slots, each a
// full output→input selection map, with one slot active at a time.
package xram

import "fmt"

// DefaultSlots is the number of stored shuffle configurations; Diet
// SODA's 128×128 XRAM stores its shuffle patterns at the crosspoints.
const DefaultSlots = 16

// Crossbar is an n×n swizzle network with stored configurations.
// Each configuration maps every output port to one input port; an
// input may feed any number of outputs (multicast is allowed, as in the
// real XRAM), and outputs may be disabled (-1).
type Crossbar struct {
	n       int
	slots   [][]int
	active  int
	routes  int // cumulative routed words, for utilization accounting
	selects int // cumulative configuration switches
}

// Disabled marks an output port with no driver in a configuration.
const Disabled = -1

// New returns an n×n crossbar with the given number of configuration
// slots (DefaultSlots if slots ≤ 0), all initialized to the identity.
func New(n, slots int) (*Crossbar, error) {
	if n < 1 {
		return nil, fmt.Errorf("xram: size %d must be ≥ 1", n)
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	x := &Crossbar{n: n, slots: make([][]int, slots)}
	for s := range x.slots {
		x.slots[s] = Identity(n)
	}
	return x, nil
}

// Store writes a configuration into a slot. cfg[j] is the input port
// driving output j, or Disabled. The configuration is copied.
func (x *Crossbar) Store(slot int, cfg []int) error {
	if slot < 0 || slot >= len(x.slots) {
		return fmt.Errorf("xram: slot %d outside [0, %d)", slot, len(x.slots))
	}
	if len(cfg) != x.n {
		return fmt.Errorf("xram: config length %d, want %d", len(cfg), x.n)
	}
	for j, in := range cfg {
		if in != Disabled && (in < 0 || in >= x.n) {
			return fmt.Errorf("xram: output %d selects invalid input %d", j, in)
		}
	}
	x.slots[slot] = append([]int(nil), cfg...)
	return nil
}

// Select makes a stored configuration active.
func (x *Crossbar) Select(slot int) error {
	if slot < 0 || slot >= len(x.slots) {
		return fmt.Errorf("xram: slot %d outside [0, %d)", slot, len(x.slots))
	}
	x.active = slot
	x.selects++
	return nil
}

// Config returns a copy of the active configuration.
func (x *Crossbar) Config() []int {
	return append([]int(nil), x.slots[x.active]...)
}

// Route passes one word vector through the active configuration:
// out[j] = in[cfg[j]] (0 for disabled outputs). in and out must both
// have length n; out may not alias in.
func (x *Crossbar) Route(in, out []uint16) error {
	if len(in) != x.n || len(out) != x.n {
		return fmt.Errorf("xram: Route vectors length %d/%d, want %d", len(in), len(out), x.n)
	}
	cfg := x.slots[x.active]
	for j, src := range cfg {
		if src == Disabled {
			out[j] = 0
		} else {
			out[j] = in[src]
		}
	}
	x.routes += x.n
	return nil
}

// Stats reports cumulative routed words and configuration switches.
func (x *Crossbar) Stats() (routedWords, configSwitches int) {
	return x.routes, x.selects
}

// Identity returns the configuration mapping every output to the
// same-numbered input.
func Identity(n int) []int {
	cfg := make([]int, n)
	for i := range cfg {
		cfg[i] = i
	}
	return cfg
}

// Rotate returns the configuration out[j] = in[(j+k) mod n], the vector
// rotation shuffle used by FIR-style kernels.
func Rotate(n, k int) []int {
	cfg := make([]int, n)
	for j := range cfg {
		cfg[j] = ((j+k)%n + n) % n
	}
	return cfg
}

// SpareMap assigns each of logical lanes 0..logical-1 a distinct healthy
// physical lane out of physical lanes 0..physical-1, skipping the faulty
// set, preserving order (logical i maps to the i-th healthy physical
// lane). It fails if fewer than logical healthy lanes remain.
func SpareMap(physical int, faulty []int, logical int) ([]int, error) {
	bad := make(map[int]bool, len(faulty))
	for _, f := range faulty {
		if f < 0 || f >= physical {
			return nil, fmt.Errorf("xram: faulty lane %d outside [0, %d)", f, physical)
		}
		bad[f] = true
	}
	healthy := make([]int, 0, physical)
	for i := 0; i < physical; i++ {
		if !bad[i] {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) < logical {
		return nil, fmt.Errorf("xram: only %d healthy lanes of %d, need %d",
			len(healthy), physical, logical)
	}
	return healthy[:logical], nil
}

// BypassConfigs builds the pair of crossbar configurations implementing
// global sparing over a physical-lane crossbar: scatter routes logical
// element i to physical lane mapping[i]; gather routes physical lane
// mapping[i] back to logical output i. Unused physical lanes are
// Disabled on the scatter side so faulty/idle FUs receive no data (they
// are power-gated in silicon). mapping must be a SpareMap-style
// injective assignment.
func BypassConfigs(physical int, mapping []int) (scatter, gather []int, err error) {
	if len(mapping) > physical {
		return nil, nil, fmt.Errorf("xram: mapping of %d lanes exceeds %d physical", len(mapping), physical)
	}
	seen := make(map[int]bool, len(mapping))
	scatter = make([]int, physical)
	for j := range scatter {
		scatter[j] = Disabled
	}
	gather = make([]int, physical)
	for j := range gather {
		gather[j] = Disabled
	}
	for logical, phys := range mapping {
		if phys < 0 || phys >= physical {
			return nil, nil, fmt.Errorf("xram: mapping[%d] = %d outside [0, %d)", logical, phys, physical)
		}
		if seen[phys] {
			return nil, nil, fmt.Errorf("xram: physical lane %d assigned twice", phys)
		}
		seen[phys] = true
		scatter[phys] = logical
		gather[logical] = phys
	}
	return scatter, gather, nil
}

// Bypass runs one operation on len(data) logical lanes placed on a
// physical-lane array with faulty FUs, the way global sparing does in
// silicon: it maps the logical lanes onto the healthy physical ones
// (SpareMap), stores the scatter and gather configurations
// (BypassConfigs) in a two-slot crossbar, scatters data, applies op on
// every physical lane — each faulty FU outputs garbage (0xDEAD) instead,
// which no logical lane may receive — and gathers the results back to
// logical order. It returns the logical→physical map and the len(data)
// gathered results, which equal op applied to data whenever the bypass
// routes correctly.
func Bypass(physical int, faulty []int, data []uint16, op func(uint16) uint16) (mapping []int, out []uint16, err error) {
	mapping, err = SpareMap(physical, faulty, len(data))
	if err != nil {
		return nil, nil, err
	}
	x, err := New(physical, 2)
	if err != nil {
		return nil, nil, err
	}
	// SpareMap's assignment is injective and in range, so BypassConfigs
	// accepts it; its configurations and the vectors below have the
	// crossbar's size, so no store, select or route can fail.
	scatter, gather, _ := BypassConfigs(physical, mapping)
	_ = x.Store(0, scatter)
	_ = x.Store(1, gather)
	in := make([]uint16, physical)
	copy(in, data)
	phys := make([]uint16, physical)
	_ = x.Select(0)
	_ = x.Route(in, phys)
	for i := range phys {
		phys[i] = op(phys[i])
	}
	for _, f := range faulty {
		phys[f] = 0xDEAD
	}
	out = make([]uint16, physical)
	_ = x.Select(1)
	_ = x.Route(phys, out)
	return mapping, out[:len(data)], nil
}
