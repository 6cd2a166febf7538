package xram

import "testing"

// TestCrosspointStoreGeometry pins the configuration-store geometry the
// SRAM yield model composes: a Diet SODA-sized crossbar defaults to
// DefaultSlots stored shuffle maps, so its crosspoint SRAM holds
// n × n × DefaultSlots selection bits — the "xram" structure in
// sram.SODAMemoryMap.
func TestCrosspointStoreGeometry(t *testing.T) {
	x, err := New(128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.n != 128 || len(x.slots) != DefaultSlots {
		t.Fatalf("128-lane crossbar is %d×%d slots, want 128×%d", x.n, len(x.slots), DefaultSlots)
	}
	bits := x.n * x.n * len(x.slots)
	if bits != 128*128*16 {
		t.Errorf("crosspoint store holds %d selection bits, want %d", bits, 128*128*16)
	}
	// Every slot boots as the identity: output j driven by input j.
	for s := range x.slots {
		if err := x.Select(s); err != nil {
			t.Fatal(err)
		}
		for j, in := range x.Config() {
			if in != j {
				t.Fatalf("slot %d output %d boots to input %d, want identity", s, j, in)
			}
		}
	}
}
