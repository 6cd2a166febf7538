package soda

import (
	"strings"
	"testing"
)

// The SRAM yield model (internal/sram) derives the SODA memory map from
// these constants; this file pins the geometry invariants both packages
// rely on and backfills the memory error paths.

func TestMemoryGeometryInvariants(t *testing.T) {
	if Banks*BankLanes != Lanes {
		t.Errorf("banks %d × bank lanes %d != SIMD width %d", Banks, BankLanes, Lanes)
	}
	words := Banks * BankRows * BankLanes
	if words*2 != 64<<10 {
		t.Errorf("memory holds %d 16-bit words (%d bytes), want 64 KB", words, words*2)
	}
}

func TestWriteRowRejectsBadGeometry(t *testing.T) {
	m := NewSIMDMemory()
	if err := m.WriteRow(0, make([]uint16, Lanes-1)); err == nil ||
		!strings.Contains(err.Error(), "length") {
		t.Errorf("short source accepted: %v", err)
	}
	if err := m.WriteRow(BankRows, make([]uint16, Lanes)); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := m.WriteRow(-1, make([]uint16, Lanes)); err == nil {
		t.Error("negative row accepted")
	}
}

func TestWriteRowPerBankRejectsBadGeometry(t *testing.T) {
	m := NewSIMDMemory()
	if err := m.WriteRowPerBank([Banks]int{}, make([]uint16, 1)); err == nil ||
		!strings.Contains(err.Error(), "length") {
		t.Errorf("short source accepted: %v", err)
	}
	rows := [Banks]int{0, 1, BankRows, 3}
	if err := m.WriteRowPerBank(rows, make([]uint16, Lanes)); err == nil ||
		!strings.Contains(err.Error(), "bank 2") {
		t.Errorf("out-of-range per-bank row accepted or misattributed: %v", err)
	}
}

func TestMemCyclesClamps(t *testing.T) {
	cases := []struct {
		lat, ratio, want int
	}{
		{2, 1, 2}, // default clocking: two SIMD cycles per row access
		{2, 2, 1}, // half-rate SIMD domain hides the memory latency
		{5, 2, 3}, // ceil(5/2)
		{0, 1, 2}, // unset latency falls back to the default 2
		{3, 0, 3}, // unset ratio falls back to 1
		{1, 4, 1}, // never below one SIMD cycle
		{-1, -1, 2},
	}
	for _, tc := range cases {
		c := ClockConfig{MemLatency: tc.lat, ClockRatio: tc.ratio}
		if got := c.memCycles(); got != tc.want {
			t.Errorf("memCycles(lat=%d, ratio=%d) = %d, want %d", tc.lat, tc.ratio, got, tc.want)
		}
	}
}
