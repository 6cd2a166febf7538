package xram

import (
	"testing"
	"testing/quick"

	"github.com/ntvsim/ntvsim/internal/rng"
)

func mustNew(t *testing.T, n, slots int) *Crossbar {
	t.Helper()
	x, err := New(n, slots)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("size 0 accepted")
	}
	x := mustNew(t, 8, 0)
	if len(x.slots) != DefaultSlots {
		t.Errorf("default slots = %d", len(x.slots))
	}
	if x.n != 8 {
		t.Errorf("size = %d", x.n)
	}
}

func TestIdentityDefault(t *testing.T) {
	x := mustNew(t, 4, 2)
	in := []uint16{10, 20, 30, 40}
	out := make([]uint16, 4)
	if err := x.Route(in, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("identity route lane %d: %d", i, out[i])
		}
	}
}

func TestStoreValidation(t *testing.T) {
	x := mustNew(t, 4, 2)
	if err := x.Store(5, Identity(4)); err == nil {
		t.Error("bad slot accepted")
	}
	if err := x.Store(0, []int{0, 1}); err == nil {
		t.Error("short config accepted")
	}
	if err := x.Store(0, []int{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range input accepted")
	}
	if err := x.Store(0, []int{0, 1, 2, Disabled}); err != nil {
		t.Errorf("disabled output rejected: %v", err)
	}
}

func TestStoreCopiesConfig(t *testing.T) {
	x := mustNew(t, 3, 1)
	cfg := []int{2, 1, 0}
	if err := x.Store(0, cfg); err != nil {
		t.Fatal(err)
	}
	cfg[0] = 1 // mutate caller's slice
	if got := x.Config(); got[0] != 2 {
		t.Error("Store did not copy the configuration")
	}
}

func TestSelectAndRoute(t *testing.T) {
	x := mustNew(t, 5, 3)
	if err := x.Store(1, Rotate(5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := x.Select(1); err != nil {
		t.Fatal(err)
	}
	if x.active != 1 {
		t.Error("active slot wrong")
	}
	in := []uint16{1, 2, 3, 4, 5}
	out := make([]uint16, 5)
	if err := x.Route(in, out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[(i+2)%5] {
			t.Errorf("rotated lane %d = %d", i, out[i])
		}
	}
	if err := x.Select(7); err == nil {
		t.Error("bad slot select accepted")
	}
	routed, selects := x.Stats()
	if routed != 5 || selects != 1 {
		t.Errorf("stats = %d, %d", routed, selects)
	}
}

func TestRouteLengthValidation(t *testing.T) {
	x := mustNew(t, 4, 1)
	if err := x.Route(make([]uint16, 3), make([]uint16, 4)); err == nil {
		t.Error("short input accepted")
	}
}

func TestDisabledOutputsZero(t *testing.T) {
	x := mustNew(t, 3, 1)
	if err := x.Store(0, []int{Disabled, 0, 1}); err != nil {
		t.Fatal(err)
	}
	out := make([]uint16, 3)
	if err := x.Route([]uint16{7, 8, 9}, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 7 || out[2] != 8 {
		t.Errorf("disabled routing wrong: %v", out)
	}
}

func TestPatternConstructors(t *testing.T) {
	for j, in := range Identity(8) {
		if in != j {
			t.Errorf("Identity(8)[%d] = %d", j, in)
		}
	}
	// Rotate semantics: out[j] = in[(j+k) mod n].
	rot := Rotate(4, 1)
	if rot[0] != 1 || rot[3] != 0 {
		t.Errorf("Rotate = %v", rot)
	}
	// Negative rotation.
	rot = Rotate(4, -1)
	if rot[0] != 3 {
		t.Errorf("Rotate(-1) = %v", rot)
	}
}

func TestSpareMap(t *testing.T) {
	m, err := SpareMap(10, []int{2, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 4, 5, 6, 7, 8, 9}
	for i := range want {
		if m[i] != want[i] {
			t.Errorf("map = %v, want %v", m, want)
			break
		}
	}
	if _, err := SpareMap(10, []int{0, 1, 2}, 8); err == nil {
		t.Error("insufficient healthy lanes accepted")
	}
	if _, err := SpareMap(10, []int{11}, 8); err == nil {
		t.Error("out-of-range faulty lane accepted")
	}
}

func TestBypassConfigsRoundTrip(t *testing.T) {
	const physical = 12
	const logical = 8
	mapping, err := SpareMap(physical, []int{1, 6, 7}, logical)
	if err != nil {
		t.Fatal(err)
	}
	scatter, gather, err := BypassConfigs(physical, mapping)
	if err != nil {
		t.Fatal(err)
	}
	x := mustNew(t, physical, 2)
	if err := x.Store(0, scatter); err != nil {
		t.Fatal(err)
	}
	if err := x.Store(1, gather); err != nil {
		t.Fatal(err)
	}
	in := make([]uint16, physical)
	for i := 0; i < logical; i++ {
		in[i] = uint16(i + 1)
	}
	mid := make([]uint16, physical)
	out := make([]uint16, physical)
	if err := x.Select(0); err != nil {
		t.Fatal(err)
	}
	if err := x.Route(in, mid); err != nil {
		t.Fatal(err)
	}
	if err := x.Select(1); err != nil {
		t.Fatal(err)
	}
	if err := x.Route(mid, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < logical; i++ {
		if out[i] != in[i] {
			t.Errorf("round trip lane %d = %d, want %d", i, out[i], in[i])
		}
	}
}

func TestBypassConfigsValidation(t *testing.T) {
	if _, _, err := BypassConfigs(4, []int{0, 0}); err == nil {
		t.Error("duplicate physical assignment accepted")
	}
	if _, _, err := BypassConfigs(4, []int{0, 9}); err == nil {
		t.Error("out-of-range mapping accepted")
	}
	if _, _, err := BypassConfigs(2, []int{0, 1, 0}); err == nil {
		t.Error("oversized mapping accepted")
	}
}

// TestBypassErrors: Bypass reports a fault outside the array, too few
// healthy lanes and an empty array instead of routing.
func TestBypassErrors(t *testing.T) {
	double := func(v uint16) uint16 { return 2 * v }
	for _, c := range []struct {
		name     string
		physical int
		faulty   []int
		data     []uint16
	}{
		{"fault outside the array", 4, []int{4}, []uint16{1}},
		{"too few healthy lanes", 4, []int{0, 1}, []uint16{1, 2, 3}},
		{"empty array", 0, nil, nil},
	} {
		if _, _, err := Bypass(c.physical, c.faulty, c.data, double); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestBypassAnyFaultPattern property: for any fault set leaving ≥ L
// healthy lanes, Bypass returns op of all L logical values although
// every faulty lane's output is corrupted.
func TestBypassAnyFaultPattern(t *testing.T) {
	r := rng.New(99)
	f := func(seed uint64) bool {
		const physical = 16
		const logical = 10
		// Up to 6 random faults.
		nf := int(seed % 7)
		faulty := r.Perm(physical)[:nf]
		in := make([]uint16, logical)
		for i := range in {
			in[i] = uint16(1000 + i)
		}
		mapping, out, err := Bypass(physical, faulty, in, func(v uint16) uint16 { return v + 1 })
		if err != nil {
			return nf > physical-logical // only acceptable failure
		}
		if len(mapping) != logical || len(out) != logical {
			return false
		}
		for i := range in {
			if out[i] != in[i]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
