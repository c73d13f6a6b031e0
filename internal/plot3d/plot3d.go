// Package plot3d reads and writes PLOT3D-format multi-block grid (XYZ) and
// solution (Q) files, the interchange format of the paper's toolchain
// (OVERFLOW, DCF3D and the NASA postprocessors all speak PLOT3D). Both the
// whitespace-separated ASCII variant and the Fortran-unformatted binary
// variant (big-endian, record-length-delimited, as written on the IBM and
// Cray machines of the era) are supported, with multi-block headers and
// optional iblank.
package plot3d

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"overd/internal/grid"
)

// Format selects the file encoding.
type Format int

// Supported encodings.
const (
	// ASCII is whitespace-separated text.
	ASCII Format = iota
	// Binary is Fortran unformatted big-endian with 4-byte record marks.
	Binary
)

// WriteXYZ writes a multi-block PLOT3D grid file with iblank from the
// world-frame coordinates of the given grids.
func WriteXYZ(w io.Writer, grids []*grid.Grid, f Format) error {
	switch f {
	case ASCII:
		return writeXYZASCII(w, grids)
	case Binary:
		return writeXYZBinary(w, grids)
	}
	return fmt.Errorf("plot3d: unknown format %d", f)
}

func writeXYZASCII(w io.Writer, grids []*grid.Grid) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(grids))
	for _, g := range grids {
		fmt.Fprintf(bw, "%d %d %d\n", g.NI, g.NJ, g.NK)
	}
	for _, g := range grids {
		for _, arr := range [][]float64{g.X, g.Y, g.Z} {
			for i, v := range arr {
				sep := " "
				if (i+1)%6 == 0 {
					sep = "\n"
				}
				fmt.Fprintf(bw, "%.9e%s", v, sep)
			}
			fmt.Fprintln(bw)
		}
		for i, v := range g.IBlank {
			sep := " "
			if (i+1)%20 == 0 {
				sep = "\n"
			}
			fmt.Fprintf(bw, "%d%s", v, sep)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// record writes one Fortran unformatted record.
func record(w io.Writer, payload func(io.Writer) error, size int) error {
	if err := binary.Write(w, binary.BigEndian, uint32(size)); err != nil {
		return err
	}
	if err := payload(w); err != nil {
		return err
	}
	return binary.Write(w, binary.BigEndian, uint32(size))
}

func writeXYZBinary(w io.Writer, grids []*grid.Grid) error {
	bw := bufio.NewWriter(w)
	if err := record(bw, func(w io.Writer) error {
		return binary.Write(w, binary.BigEndian, int32(len(grids)))
	}, 4); err != nil {
		return err
	}
	if err := record(bw, func(w io.Writer) error {
		for _, g := range grids {
			if err := binary.Write(w, binary.BigEndian,
				[3]int32{int32(g.NI), int32(g.NJ), int32(g.NK)}); err != nil {
				return err
			}
		}
		return nil
	}, 12*len(grids)); err != nil {
		return err
	}
	for _, g := range grids {
		n := g.NPoints()
		size := 3*8*n + 4*n
		if err := record(bw, func(w io.Writer) error {
			for _, arr := range [][]float64{g.X, g.Y, g.Z} {
				if err := binary.Write(w, binary.BigEndian, arr); err != nil {
					return err
				}
			}
			ib := make([]int32, n)
			for i, v := range g.IBlank {
				ib[i] = int32(v)
			}
			return binary.Write(w, binary.BigEndian, ib)
		}, size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadXYZ reads a multi-block grid file previously written by WriteXYZ,
// returning fresh grids (body frame set to the stored world coordinates).
// A header that no grid could have — a dimension below 1, more points than
// maxPoints, a binary record whose length is not what its dimensions make —
// is an error, found before anything is allocated for it; data is read into
// slices that grow as it arrives, so a file shorter than its header claims
// fails at its end.
func ReadXYZ(r io.Reader, f Format) ([]*grid.Grid, error) {
	switch f {
	case ASCII:
		return readXYZASCII(r)
	case Binary:
		return readXYZBinary(r)
	}
	return nil, fmt.Errorf("plot3d: unknown format %d", f)
}

// maxBlocks bounds a file's block count.
const maxBlocks = 1 << 20

// maxPoints bounds a block's point count: a Q block's data record, 40 bytes
// a point, must fit the 4-byte record marks of the binary format, and the
// ASCII format refuses what the binary one could not hold.
const maxPoints = math.MaxUint32 / 40

// blockDims is one block's dimensions and their point count.
type blockDims struct{ ni, nj, nk, n int }

// newBlockDims validates block b's dimensions: each at least 1, their product
// at most maxPoints (checked as it is formed, so it never overflows).
func newBlockDims(b, ni, nj, nk int) (blockDims, error) {
	if ni < 1 || nj < 1 || nk < 1 {
		return blockDims{}, fmt.Errorf("plot3d: block %d: invalid dimensions %dx%dx%d", b, ni, nj, nk)
	}
	n := 1
	for _, d := range [3]int{ni, nj, nk} {
		if d > maxPoints/n {
			return blockDims{}, fmt.Errorf("plot3d: block %d: %dx%dx%d points, more than %d", b, ni, nj, nk, maxPoints)
		}
		n *= d
	}
	return blockDims{ni, nj, nk, n}, nil
}

// headerASCII reads the block count and every block's dimensions.
func headerASCII(r io.Reader) ([]blockDims, error) {
	var nb int
	if _, err := fmt.Fscan(r, &nb); err != nil {
		return nil, fmt.Errorf("plot3d: block count: %w", err)
	}
	if nb <= 0 || nb > maxBlocks {
		return nil, fmt.Errorf("plot3d: implausible block count %d", nb)
	}
	dims := make([]blockDims, 0, min(nb, 64))
	for b := 0; b < nb; b++ {
		var ni, nj, nk int
		if _, err := fmt.Fscan(r, &ni, &nj, &nk); err != nil {
			return nil, fmt.Errorf("plot3d: dims of block %d: %w", b, err)
		}
		d, err := newBlockDims(b, ni, nj, nk)
		if err != nil {
			return nil, err
		}
		dims = append(dims, d)
	}
	return dims, nil
}

// headerBinary reads the block-count record and the dimensions record.
func headerBinary(r io.Reader) ([]blockDims, error) {
	var nb int32
	if err := readRecord(r, 4, func(r io.Reader) error {
		return binary.Read(r, binary.BigEndian, &nb)
	}); err != nil {
		return nil, err
	}
	if nb <= 0 || nb > maxBlocks {
		return nil, fmt.Errorf("plot3d: implausible block count %d", nb)
	}
	var raw []int32
	if err := readRecord(r, 12*int64(nb), func(r io.Reader) (err error) {
		raw, err = readValues[int32](r, 3*int(nb))
		return err
	}); err != nil {
		return nil, err
	}
	dims := make([]blockDims, nb)
	for b := range dims {
		d, err := newBlockDims(b, int(raw[3*b]), int(raw[3*b+1]), int(raw[3*b+2]))
		if err != nil {
			return nil, err
		}
		dims[b] = d
	}
	return dims, nil
}

// valueChunk is how many values the readers allocate room for ahead of the
// data.
const valueChunk = 4096

// scanValues reads n whitespace-separated values.
func scanValues[T float64 | int32](r io.Reader, n int) ([]T, error) {
	out := make([]T, 0, min(n, valueChunk))
	for len(out) < n {
		var v T
		if _, err := fmt.Fscan(r, &v); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// readValues reads n big-endian values, a chunk at a time.
func readValues[T float64 | int32](r io.Reader, n int) ([]T, error) {
	out := make([]T, 0, min(n, valueChunk))
	for len(out) < n {
		m := min(n-len(out), valueChunk)
		out = append(out, make([]T, m)...)
		if err := binary.Read(r, binary.BigEndian, out[len(out)-m:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newGrid builds block b from its coordinates (all x, then y, then z) and
// iblank.
func newGrid(b int, d blockDims, xyz []float64, ib []int32) *grid.Grid {
	g := grid.New(b, fmt.Sprintf("block-%d", b), d.ni, d.nj, d.nk)
	n := d.n
	copy(g.X, xyz[:n])
	copy(g.Y, xyz[n:2*n])
	copy(g.Z, xyz[2*n:])
	copy(g.X0, g.X)
	copy(g.Y0, g.Y)
	copy(g.Z0, g.Z)
	for i, v := range ib {
		g.IBlank[i] = int8(v)
	}
	return g
}

func readXYZASCII(r io.Reader) ([]*grid.Grid, error) {
	br := bufio.NewReader(r)
	dims, err := headerASCII(br)
	if err != nil {
		return nil, err
	}
	grids := make([]*grid.Grid, len(dims))
	for b, d := range dims {
		xyz, err := scanValues[float64](br, 3*d.n)
		if err != nil {
			return nil, fmt.Errorf("plot3d: coordinates of block %d: %w", b, err)
		}
		ib, err := scanValues[int32](br, d.n)
		if err != nil {
			return nil, fmt.Errorf("plot3d: iblank of block %d: %w", b, err)
		}
		grids[b] = newGrid(b, d, xyz, ib)
	}
	return grids, nil
}

// readRecord reads one Fortran unformatted record, refusing it unless its
// leading mark says size bytes.
func readRecord(r io.Reader, size int64, payload func(io.Reader) error) error {
	var lead uint32
	if err := binary.Read(r, binary.BigEndian, &lead); err != nil {
		return err
	}
	if int64(lead) != size {
		return fmt.Errorf("plot3d: record of %d bytes, want %d", lead, size)
	}
	if err := payload(io.LimitReader(r, int64(lead))); err != nil {
		return err
	}
	var trail uint32
	if err := binary.Read(r, binary.BigEndian, &trail); err != nil {
		return err
	}
	if trail != lead {
		return fmt.Errorf("plot3d: record marks disagree (%d vs %d)", lead, trail)
	}
	return nil
}

func readXYZBinary(r io.Reader) ([]*grid.Grid, error) {
	br := bufio.NewReader(r)
	dims, err := headerBinary(br)
	if err != nil {
		return nil, err
	}
	grids := make([]*grid.Grid, len(dims))
	for b, d := range dims {
		var xyz []float64
		var ib []int32
		if err := readRecord(br, 28*int64(d.n), func(r io.Reader) (err error) {
			if xyz, err = readValues[float64](r, 3*d.n); err != nil {
				return err
			}
			ib, err = readValues[int32](r, d.n)
			return err
		}); err != nil {
			return nil, fmt.Errorf("plot3d: block %d: %w", b, err)
		}
		grids[b] = newGrid(b, d, xyz, ib)
	}
	return grids, nil
}

// QBlock is one block of conserved-variable solution data: 5 components,
// point-major, matching the paired grid block's dimensions.
type QBlock struct {
	NI, NJ, NK int
	// Mach, Alpha, Re, Time are the PLOT3D Q-file header words.
	Mach, Alpha, Re, Time float64
	// Q holds [rho, rho·u, rho·v, rho·w, e] per point, component-major:
	// Q[c][idx].
	Q [5][]float64
}

// NewQBlock allocates a Q block of the given dimensions.
func NewQBlock(ni, nj, nk int) *QBlock {
	qb := &QBlock{NI: ni, NJ: nj, NK: nk}
	for c := range qb.Q {
		qb.Q[c] = make([]float64, ni*nj*nk)
	}
	return qb
}

// WriteQ writes a multi-block PLOT3D solution file.
func WriteQ(w io.Writer, blocks []*QBlock, f Format) error {
	switch f {
	case ASCII:
		return writeQASCII(w, blocks)
	case Binary:
		return writeQBinary(w, blocks)
	}
	return fmt.Errorf("plot3d: unknown format %d", f)
}

func writeQASCII(w io.Writer, blocks []*QBlock) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", len(blocks))
	for _, qb := range blocks {
		fmt.Fprintf(bw, "%d %d %d\n", qb.NI, qb.NJ, qb.NK)
	}
	for _, qb := range blocks {
		fmt.Fprintf(bw, "%.9e %.9e %.9e %.9e\n", qb.Mach, qb.Alpha, qb.Re, qb.Time)
		for c := 0; c < 5; c++ {
			for i, v := range qb.Q[c] {
				sep := " "
				if (i+1)%6 == 0 {
					sep = "\n"
				}
				fmt.Fprintf(bw, "%.9e%s", v, sep)
			}
			fmt.Fprintln(bw)
		}
	}
	return bw.Flush()
}

func writeQBinary(w io.Writer, blocks []*QBlock) error {
	bw := bufio.NewWriter(w)
	if err := record(bw, func(w io.Writer) error {
		return binary.Write(w, binary.BigEndian, int32(len(blocks)))
	}, 4); err != nil {
		return err
	}
	if err := record(bw, func(w io.Writer) error {
		for _, qb := range blocks {
			if err := binary.Write(w, binary.BigEndian,
				[3]int32{int32(qb.NI), int32(qb.NJ), int32(qb.NK)}); err != nil {
				return err
			}
		}
		return nil
	}, 12*len(blocks)); err != nil {
		return err
	}
	for _, qb := range blocks {
		if err := record(bw, func(w io.Writer) error {
			return binary.Write(w, binary.BigEndian,
				[4]float64{qb.Mach, qb.Alpha, qb.Re, qb.Time})
		}, 32); err != nil {
			return err
		}
		n := len(qb.Q[0])
		if err := record(bw, func(w io.Writer) error {
			for c := 0; c < 5; c++ {
				if err := binary.Write(w, binary.BigEndian, qb.Q[c]); err != nil {
					return err
				}
			}
			return nil
		}, 5*8*n); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadQ reads a multi-block PLOT3D solution file, refusing a header as
// ReadXYZ does.
func ReadQ(r io.Reader, f Format) ([]*QBlock, error) {
	switch f {
	case ASCII:
		return readQASCII(r)
	case Binary:
		return readQBinary(r)
	}
	return nil, fmt.Errorf("plot3d: unknown format %d", f)
}

// newQ builds a Q block from its header words and its values (all of the
// first component, then the second, ...).
func newQ(d blockDims, hdr [4]float64, q []float64) *QBlock {
	qb := NewQBlock(d.ni, d.nj, d.nk)
	qb.Mach, qb.Alpha, qb.Re, qb.Time = hdr[0], hdr[1], hdr[2], hdr[3]
	for c := range qb.Q {
		copy(qb.Q[c], q[c*d.n:])
	}
	return qb
}

func readQASCII(r io.Reader) ([]*QBlock, error) {
	br := bufio.NewReader(r)
	dims, err := headerASCII(br)
	if err != nil {
		return nil, err
	}
	out := make([]*QBlock, len(dims))
	for b, d := range dims {
		var hdr [4]float64
		if _, err := fmt.Fscan(br, &hdr[0], &hdr[1], &hdr[2], &hdr[3]); err != nil {
			return nil, fmt.Errorf("plot3d: header of block %d: %w", b, err)
		}
		q, err := scanValues[float64](br, 5*d.n)
		if err != nil {
			return nil, fmt.Errorf("plot3d: solution of block %d: %w", b, err)
		}
		out[b] = newQ(d, hdr, q)
	}
	return out, nil
}

func readQBinary(r io.Reader) ([]*QBlock, error) {
	br := bufio.NewReader(r)
	dims, err := headerBinary(br)
	if err != nil {
		return nil, err
	}
	out := make([]*QBlock, len(dims))
	for b, d := range dims {
		var hdr [4]float64
		if err := readRecord(br, 32, func(r io.Reader) error {
			return binary.Read(r, binary.BigEndian, &hdr)
		}); err != nil {
			return nil, fmt.Errorf("plot3d: block %d: %w", b, err)
		}
		var q []float64
		if err := readRecord(br, 40*int64(d.n), func(r io.Reader) (err error) {
			q, err = readValues[float64](r, 5*d.n)
			return err
		}); err != nil {
			return nil, fmt.Errorf("plot3d: block %d: %w", b, err)
		}
		out[b] = newQ(d, hdr, q)
	}
	return out, nil
}
