package plot3d

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
)

func testGrids() []*grid.Grid {
	a := gridgen.AirfoilOGrid(0, "airfoil", 16, 6, 2)
	a.IBlank[5] = grid.IBHole
	a.IBlank[6] = grid.IBFringe
	b := gridgen.CartesianBox(1, "bg", 4, 5, 3,
		geom.Box{Min: geom.Vec3{X: -1, Y: -1, Z: -1}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}})
	return []*grid.Grid{a, b}
}

func roundTripXYZ(t *testing.T, f Format) {
	t.Helper()
	grids := testGrids()
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, grids, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXYZ(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(grids) {
		t.Fatalf("blocks: %d vs %d", len(got), len(grids))
	}
	for b, g := range grids {
		r := got[b]
		if r.NI != g.NI || r.NJ != g.NJ || r.NK != g.NK {
			t.Fatalf("block %d dims %dx%dx%d vs %dx%dx%d",
				b, r.NI, r.NJ, r.NK, g.NI, g.NJ, g.NK)
		}
		for i := range g.X {
			tol := 1e-8
			if f == Binary {
				tol = 0 // binary is exact
			}
			if math.Abs(r.X[i]-g.X[i]) > tol || math.Abs(r.Y[i]-g.Y[i]) > tol ||
				math.Abs(r.Z[i]-g.Z[i]) > tol {
				t.Fatalf("block %d point %d coordinates differ", b, i)
			}
			if r.IBlank[i] != g.IBlank[i] {
				t.Fatalf("block %d point %d iblank %d vs %d", b, i, r.IBlank[i], g.IBlank[i])
			}
		}
	}
}

func TestXYZRoundTripASCII(t *testing.T)  { roundTripXYZ(t, ASCII) }
func TestXYZRoundTripBinary(t *testing.T) { roundTripXYZ(t, Binary) }

func roundTripQ(t *testing.T, f Format) {
	t.Helper()
	qb := NewQBlock(4, 3, 2)
	qb.Mach, qb.Alpha, qb.Re, qb.Time = 0.8, 0.05, 1e6, 12.5
	for c := 0; c < 5; c++ {
		for i := range qb.Q[c] {
			qb.Q[c][i] = float64(c*100+i) / 7
		}
	}
	var buf bytes.Buffer
	if err := WriteQ(&buf, []*QBlock{qb}, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadQ(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("blocks %d", len(got))
	}
	r := got[0]
	if r.Mach != qb.Mach && math.Abs(r.Mach-qb.Mach) > 1e-8 {
		t.Errorf("Mach %v", r.Mach)
	}
	if math.Abs(r.Time-12.5) > 1e-8 {
		t.Errorf("Time %v", r.Time)
	}
	for c := 0; c < 5; c++ {
		for i := range qb.Q[c] {
			tol := 1e-8
			if f == Binary {
				tol = 0
			}
			if math.Abs(r.Q[c][i]-qb.Q[c][i]) > tol {
				t.Fatalf("Q[%d][%d] = %v, want %v", c, i, r.Q[c][i], qb.Q[c][i])
			}
		}
	}
}

func TestQRoundTripASCII(t *testing.T)  { roundTripQ(t, ASCII) }
func TestQRoundTripBinary(t *testing.T) { roundTripQ(t, Binary) }

func TestReadXYZRejectsGarbage(t *testing.T) {
	if _, err := ReadXYZ(strings.NewReader("not a grid"), ASCII); err == nil {
		t.Error("garbage ASCII should fail")
	}
	if _, err := ReadXYZ(bytes.NewReader([]byte{1, 2, 3}), Binary); err == nil {
		t.Error("garbage binary should fail")
	}
	// Implausible block count.
	if _, err := ReadXYZ(strings.NewReader("99999999\n"), ASCII); err == nil {
		t.Error("huge block count should fail")
	}
}

func TestBinaryRecordMarkMismatch(t *testing.T) {
	var buf bytes.Buffer
	grids := testGrids()[:1]
	if err := WriteXYZ(&buf, grids, Binary); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the trailing record mark of the first record.
	b[7] ^= 0xFF
	if _, err := ReadXYZ(bytes.NewReader(b), Binary); err == nil {
		t.Error("corrupted record marks should fail")
	}
}

func TestUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, testGrids(), Format(9)); err == nil {
		t.Error("unknown write format should fail")
	}
	if _, err := ReadXYZ(&buf, Format(9)); err == nil {
		t.Error("unknown read format should fail")
	}
	if err := WriteQ(&buf, nil, Format(9)); err == nil {
		t.Error("unknown Q write format should fail")
	}
	if _, err := ReadQ(&buf, Format(9)); err == nil {
		t.Error("unknown Q read format should fail")
	}
}

// be encodes values big-endian, as the binary format stores them.
func be(vals ...any) []byte {
	var buf bytes.Buffer
	for _, v := range vals {
		if err := binary.Write(&buf, binary.BigEndian, v); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// rec is one binary record whose marks say lead bytes, whatever follows.
func rec(lead int, vals ...any) []byte {
	return be(append(append([]any{uint32(lead)}, vals...), uint32(lead))...)
}

// binHeader is a binary file's block-count and dimensions records.
func binHeader(dims ...[3]int32) []byte {
	return append(rec(4, int32(len(dims))), rec(12*len(dims), dims)...)
}

// TestReadersRefuseBadFiles: a header no grid could have, or a binary record
// whose length is not what the dimensions make, is an error from every
// reader, and one that promises more data than the file holds is refused
// without allocating for the promise.
func TestReadersRefuseBadFiles(t *testing.T) {
	huge := [3]int32{1000, 1000, 100} // 1e8 points: allowed, 2.8 GB of grid
	type file struct {
		name string
		f    Format
		in   []byte
	}
	var both []file // read as a grid and as a solution file
	for _, d := range []struct {
		name       string
		ni, nj, nk int64
	}{
		{"zero dimension", 0, 4, 1},
		{"negative dimension", 4, -3, 1},
		{"too many points", 100000, 100000, 1},
		{"product overflows", 1 << 31, 1 << 31, 1 << 31},
	} {
		both = append(both,
			file{"ascii " + d.name, ASCII, []byte(fmt.Sprintf("1\n%d %d %d\n1 2 3 4 5 6\n", d.ni, d.nj, d.nk))},
			file{"binary " + d.name, Binary, binHeader([3]int32{int32(d.ni), int32(d.nj), int32(d.nk)})})
	}
	both = append(both,
		file{"binary dimensions record too short", Binary, append(rec(4, int32(2)), rec(12, [3]int32{2, 2, 1})...)},
		file{"ascii data shorter than promised", ASCII, []byte("1\n1000 1000 100\n1 2 3 4 5 6\n")})
	xyz := slices.Concat(both, []file{
		{"binary grid record too long", Binary, append(binHeader([3]int32{2, 2, 1}), rec(28*4+8, make([]byte, 28*4+8))...)},
		{"binary grid record too short", Binary, append(binHeader([3]int32{2, 2, 1}), rec(28*4-4, make([]byte, 28*4-4))...)},
		{"binary grid data shorter than promised", Binary, append(binHeader(huge), be(uint32(28*100000000), 1.0, 2.0)...)},
	})
	q := slices.Concat(both, []file{
		{"binary solution header record wrong", Binary, append(binHeader([3]int32{2, 2, 1}), rec(24, [3]float64{})...)},
		{"binary solution record wrong", Binary, append(append(binHeader([3]int32{2, 2, 1}), rec(32, [4]float64{})...), rec(40*4+8, make([]byte, 40*4+8))...)},
		{"binary solution data shorter than promised", Binary, append(append(binHeader(huge), rec(32, [4]float64{})...), be(uint32(40*100000000), 1.0)...)},
	})
	for _, reader := range []struct {
		name  string
		read  func(io.Reader, Format) error
		files []file
	}{
		{"ReadXYZ", func(r io.Reader, f Format) error { _, err := ReadXYZ(r, f); return err }, xyz},
		{"ReadQ", func(r io.Reader, f Format) error { _, err := ReadQ(r, f); return err }, q},
	} {
		for _, tc := range reader.files {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := reader.read(bytes.NewReader(tc.in), tc.f)
			runtime.ReadMemStats(&m1)
			if err == nil {
				t.Errorf("%s, %s: accepted", reader.name, tc.name)
			}
			if b := m1.TotalAlloc - m0.TotalAlloc; b > 1<<20 {
				t.Errorf("%s, %s: allocated %d bytes before refusing", reader.name, tc.name, b)
			}
		}
	}
}

// FuzzReadXYZ: whatever the bytes, ReadXYZ returns grids or an error and
// never panics, and grids it accepts survive a WriteXYZ round trip: they read
// back with the same dimensions and iblank, bit for bit the same coordinates
// in binary, and write the same bytes again.
func FuzzReadXYZ(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, binary bool) {
		format := ASCII
		if binary {
			format = Binary
		}
		grids, err := ReadXYZ(bytes.NewReader(data), format)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteXYZ(&first, grids, format); err != nil {
			t.Fatalf("accepted grids do not write: %v", err)
		}
		back, err := ReadXYZ(bytes.NewReader(first.Bytes()), format)
		if err != nil {
			t.Fatalf("written grids do not read back: %v", err)
		}
		if len(back) != len(grids) {
			t.Fatalf("%d blocks read back as %d", len(grids), len(back))
		}
		for b, g := range grids {
			r := back[b]
			if r.NI != g.NI || r.NJ != g.NJ || r.NK != g.NK || !slices.Equal(r.IBlank, g.IBlank) {
				t.Fatalf("block %d: %dx%dx%d read back as %dx%dx%d, or its iblank changed", b, g.NI, g.NJ, g.NK, r.NI, r.NJ, r.NK)
			}
			for i := range g.X {
				if format == Binary && (math.Float64bits(r.X[i]) != math.Float64bits(g.X[i]) ||
					math.Float64bits(r.Y[i]) != math.Float64bits(g.Y[i]) ||
					math.Float64bits(r.Z[i]) != math.Float64bits(g.Z[i])) {
					t.Fatalf("block %d point %d: coordinates changed in a binary round trip", b, i)
				}
			}
		}
		if err := WriteXYZ(&second, back, format); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("grids read back write other bytes (%v)", err)
		}
	})
}
