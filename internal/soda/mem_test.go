package soda

import (
	"testing"
)

func TestRowRoundTrip(t *testing.T) {
	m := NewSIMDMemory()
	row := make([]uint16, Lanes)
	for i := range row {
		row[i] = uint16(i * 3)
	}
	if err := m.WriteRow(17, row); err != nil {
		t.Fatal(err)
	}
	got := make([]uint16, Lanes)
	if err := m.ReadRow(17, got); err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Fatalf("lane %d = %d, want %d", i, got[i], row[i])
		}
	}
	reads, writes := m.Stats()
	if reads != 1 || writes != 1 {
		t.Errorf("stats = %d, %d", reads, writes)
	}
}

func TestRowBounds(t *testing.T) {
	m := NewSIMDMemory()
	buf := make([]uint16, Lanes)
	if err := m.ReadRow(-1, buf); err == nil {
		t.Error("negative row accepted")
	}
	if err := m.ReadRow(BankRows, buf); err == nil {
		t.Error("row beyond memory accepted")
	}
	if err := m.ReadRow(0, make([]uint16, 3)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := m.WriteRow(0, make([]uint16, 3)); err == nil {
		t.Error("short write accepted")
	}
}

func TestElementAddressing(t *testing.T) {
	m := NewSIMDMemory()
	// Element (row 2, lane 77) has flat address 2·128 + 77. Lane 77 is
	// bank 2 (77/32), bank-lane 13.
	if err := m.WriteElem(2*Lanes+77, 4242); err != nil {
		t.Fatal(err)
	}
	row := make([]uint16, Lanes)
	if err := m.ReadRow(2, row); err != nil {
		t.Fatal(err)
	}
	if row[77] != 4242 {
		t.Errorf("row read lane 77 = %d", row[77])
	}
	v, err := m.ReadElem(2*Lanes + 77)
	if err != nil || v != 4242 {
		t.Errorf("ReadElem = %d, %v", v, err)
	}
	if _, err := m.ReadElem(-1); err == nil {
		t.Error("negative element accepted")
	}
	if _, err := m.ReadElem(BankRows * Lanes); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func TestLoadReadSlice(t *testing.T) {
	m := NewSIMDMemory()
	data := []uint16{5, 6, 7, 8, 9}
	if err := m.LoadSlice(130, data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		got, err := m.ReadElem(130 + i)
		if err != nil {
			t.Fatal(err)
		}
		if got != data[i] {
			t.Fatalf("slice mismatch at %d", i)
		}
	}
	if err := m.LoadSlice(BankRows*Lanes-2, data); err == nil {
		t.Error("overflowing LoadSlice accepted")
	}
}

func TestGatherStrided(t *testing.T) {
	m := NewSIMDMemory()
	// Fill rows 0..127 with row index so a stride-128 gather of column 5
	// yields 0,1,2,...,127.
	row := make([]uint16, Lanes)
	for r := 0; r < Lanes; r++ {
		for i := range row {
			row[i] = uint16(r)
		}
		if err := m.WriteRow(r, row); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]uint16, Lanes)
	rows, err := m.Gather(5, Lanes, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 128 {
		t.Errorf("rows touched = %d, want 128", rows)
	}
	for k := range dst {
		if dst[k] != uint16(k) {
			t.Fatalf("gather lane %d = %d", k, dst[k])
		}
	}
	// Unit-stride gather touches exactly one row.
	rows, err = m.Gather(0, 0, dst) // stride 0: all from element 0
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Errorf("stride-0 rows = %d, want 1", rows)
	}
}

func TestGatherBounds(t *testing.T) {
	m := NewSIMDMemory()
	dst := make([]uint16, Lanes)
	if _, err := m.Gather(BankRows*Lanes-1, 1, dst); err == nil {
		t.Error("gather past memory accepted")
	}
	if _, err := m.Gather(0, 1, make([]uint16, 4)); err == nil {
		t.Error("short gather dst accepted")
	}
}
