package binenc

import (
	"errors"
	"math"
	"testing"
	"time"
)

// rec exercises every Codec visit, so one layout serves both directions.
type rec struct {
	A uint8
	B int
	C int64
	D uint64
	E bool
	F string
	G []int64
}

func (r *rec) wire(x Codec) {
	U8(x, &r.A)
	U32(x, &r.B)
	U64(x, &r.C)
	U64(x, &r.D)
	x.Bool(&r.E)
	x.Str(&r.F)
	if n := x.Len(len(r.G), 8); x.D != nil {
		r.G = make([]int64, n)
	}
	for i := range r.G {
		U64(x, &r.G[i])
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := rec{A: 255, B: math.MaxUint32, C: math.MinInt64, D: math.MaxUint64, E: true, F: "\xff\x00é", G: []int64{-1, 0, 1}}
	var e Encoder
	want.wire(Codec{E: &e})
	var got rec
	d := Decoder{B: e.B}
	got.wire(Codec{D: &d})
	if d.Err != nil || len(d.B) != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err, len(d.B))
	}
	if got.A != want.A || got.B != want.B || got.C != want.C || got.D != want.D || got.E != want.E || got.F != want.F ||
		len(got.G) != 3 || got.G[0] != -1 || got.G[2] != 1 {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	// Every strict prefix is a truncation: latched, never a panic, and
	// every later read returns zero values.
	for n := 0; n < len(e.B); n++ {
		d := Decoder{B: e.B[:n]}
		(&rec{}).wire(Codec{D: &d})
		if !errors.Is(d.Err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrTruncated", n, d.Err)
		}
	}
}

func TestCountAndFail(t *testing.T) {
	// A count is checked against the bytes present before anyone
	// allocates for it.
	var e Encoder
	e.U32(math.MaxUint32)
	e.U64(0)
	d := Decoder{B: e.B}
	if n := d.Count(8); n != 0 || !errors.Is(d.Err, ErrTruncated) {
		t.Fatalf("Count = %d, err %v; want 0, ErrTruncated", n, d.Err)
	}
	d = Decoder{B: []byte{0xff, 0xff, 0xff, 0xff, 'x'}}
	if s := d.Str(); s != "" || !errors.Is(d.Err, ErrTruncated) {
		t.Fatalf("Str = %q, err %v; want \"\", ErrTruncated", s, d.Err)
	}
	// Fail keeps the first error and is inert while encoding.
	first, second := errors.New("first"), errors.New("second")
	d = Decoder{}
	x := Codec{D: &d}
	x.Fail(first)
	x.Fail(second)
	if d.Err != first {
		t.Fatalf("Fail kept %v, want the first error", d.Err)
	}
	Codec{E: &e}.Fail(first)
}

// leafy has every leaf kind Struct visits, nested and in an array, plus
// an unexported field it must skip.
type leafy struct {
	N    int32
	D    time.Duration
	Hist struct {
		Count   uint64
		Buckets [3]uint16
	}
	On   bool
	Name string
	skip int
}

// TestStructLeaves: Struct round-trips every exported leaf, refuses a
// body whose leaf count is another type's, and latches truncation.
func TestStructLeaves(t *testing.T) {
	want := leafy{N: -7, D: time.Hour, On: true, Name: "\xffé", skip: 9}
	want.Hist.Count = math.MaxUint64
	want.Hist.Buckets = [3]uint16{1, 0, math.MaxUint16}
	var e Encoder
	Struct(Codec{E: &e}, &want)
	if n := len(e.B); n != 4+8*(3+3)+1+4+len(want.Name) {
		t.Fatalf("encoded %d bytes", n)
	}
	var got leafy
	d := Decoder{B: e.B}
	Struct(Codec{D: &d}, &got)
	want.skip = 0
	if d.Err != nil || len(d.B) != 0 || got != want {
		t.Fatalf("decoded %+v (err %v, %d left), want %+v", got, d.Err, len(d.B), want)
	}
	d = Decoder{B: e.B}
	var other struct{ A, B uint64 }
	if Struct(Codec{D: &d}, &other); d.Err == nil {
		t.Fatal("an 8-leaf body decoded into a 2-leaf struct")
	}
	for n := 0; n < len(e.B); n++ {
		d := Decoder{B: e.B[:n]}
		if Struct(Codec{D: &d}, &leafy{}); !errors.Is(d.Err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrTruncated", n, d.Err)
		}
	}
}
