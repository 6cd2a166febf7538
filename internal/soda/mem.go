package soda

import "fmt"

// SIMDMemory is the PE's 64 KB multi-banked vector memory: four banks,
// each 32 lanes wide × 256 rows of 16-bit words. A full 128-wide row r
// spans all four banks at the same row index; the per-bank AGU pipelines
// also allow each bank to fetch a different row, which is what the data
// prefetcher uses for strided and two-dimensional access.
type SIMDMemory struct {
	banks [Banks][BankRows][BankLanes]uint16

	// Access accounting (full-voltage domain activity).
	rowReads  int
	rowWrites int
}

// NewSIMDMemory returns a zeroed memory.
func NewSIMDMemory() *SIMDMemory { return &SIMDMemory{} }

// checkRow validates a row index.
func checkRow(row int) error {
	if row < 0 || row >= BankRows {
		return fmt.Errorf("soda: row %d outside [0, %d)", row, BankRows)
	}
	return nil
}

// ReadRow reads the 128-wide row at the same index in all four banks
// into dst (length Lanes).
func (m *SIMDMemory) ReadRow(row int, dst []uint16) error {
	if err := checkRow(row); err != nil {
		return err
	}
	if len(dst) != Lanes {
		return fmt.Errorf("soda: ReadRow dst length %d, want %d", len(dst), Lanes)
	}
	for b := 0; b < Banks; b++ {
		copy(dst[b*BankLanes:(b+1)*BankLanes], m.banks[b][row][:])
	}
	m.rowReads++
	return nil
}

// WriteRow writes the 128-wide row at the same index in all four banks.
func (m *SIMDMemory) WriteRow(row int, src []uint16) error {
	if err := checkRow(row); err != nil {
		return err
	}
	if len(src) != Lanes {
		return fmt.Errorf("soda: WriteRow src length %d, want %d", len(src), Lanes)
	}
	for b := 0; b < Banks; b++ {
		copy(m.banks[b][row][:], src[b*BankLanes:(b+1)*BankLanes])
	}
	m.rowWrites++
	return nil
}

// ReadElem reads one 16-bit element by flat element address
// (row·Lanes + lane).
func (m *SIMDMemory) ReadElem(addr int) (uint16, error) {
	row, lane := addr/Lanes, addr%Lanes
	if addr < 0 || row >= BankRows {
		return 0, fmt.Errorf("soda: element address %d outside memory", addr)
	}
	return m.banks[lane/BankLanes][row][lane%BankLanes], nil
}

// WriteElem writes one 16-bit element by flat element address.
func (m *SIMDMemory) WriteElem(addr int, v uint16) error {
	row, lane := addr/Lanes, addr%Lanes
	if addr < 0 || row >= BankRows {
		return fmt.Errorf("soda: element address %d outside memory", addr)
	}
	m.banks[lane/BankLanes][row][lane%BankLanes] = v
	return nil
}

// LoadSlice bulk-writes words starting at a flat element address —
// a testbench convenience for staging kernel inputs.
func (m *SIMDMemory) LoadSlice(addr int, words []uint16) error {
	for i, w := range words {
		if err := m.WriteElem(addr+i, w); err != nil {
			return err
		}
	}
	return nil
}

// Gather implements the data prefetcher: it assembles a 128-wide vector
// from element addresses base, base+stride, base+2·stride, …, using the
// 128-wide prefetch buffer and the alignment crossbar. It returns the
// gathered vector and the number of distinct memory rows touched — each
// distinct row costs one full-voltage memory access, which is how the
// prefetcher's cycle cost is charged by the PE.
func (m *SIMDMemory) Gather(base, stride int, dst []uint16) (rowsTouched int, err error) {
	if len(dst) != Lanes {
		return 0, fmt.Errorf("soda: Gather dst length %d, want %d", len(dst), Lanes)
	}
	seen := make(map[int]bool)
	for k := 0; k < Lanes; k++ {
		addr := base + k*stride
		w, err := m.ReadElem(addr)
		if err != nil {
			return 0, fmt.Errorf("soda: Gather lane %d: %w", k, err)
		}
		dst[k] = w
		seen[addr/Lanes] = true
	}
	m.rowReads += len(seen)
	return len(seen), nil
}

// Stats returns cumulative full-row read and write counts (gathers count
// one read per distinct row touched).
func (m *SIMDMemory) Stats() (rowReads, rowWrites int) {
	return m.rowReads, m.rowWrites
}
