package mapping

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"resparc/internal/bitvec"
	"resparc/internal/energy"
	"resparc/internal/snn"
	"resparc/internal/tensor"
)

// handLayer builds a layer mapping of insz inputs from explicit MCA input
// lists; mpes[i] is MCA i's mPE and every MCA is its own output group.
func handLayer(insz int, lists [][]int32, mpes []int) *LayerMapping {
	lm := &LayerMapping{
		Layer:  &snn.Layer{Kind: snn.DenseLayer, In: tensor.Shape3{H: 1, W: 1, C: insz}},
		Groups: len(lists),
	}
	for i, ins := range lists {
		lm.MCAs = append(lm.MCAs, MCA{
			Group: i, Inputs: ins, Outputs: []int32{int32(i)},
			Taps: len(ins), MPE: mpes[i],
		})
	}
	return lm
}

// checkCounts compiles lm at packet width w and checks LayerPlan.Count on
// the spike vector in against a naive per-input reference: each MCA's
// spiking-row count (with multiplicity), the occupied packet words, and the
// delivered/suppressed packets of the mPE runs. It also checks that MCAs
// share a row set exactly when their input lists are identical.
func checkCounts(t testing.TB, lm *LayerMapping, w int, in *bitvec.Bits) {
	t.Helper()
	pl := lm.Plan(64, w, energy.Default45nm())
	rows := make([]int32, pl.NSets)
	occ := make([]bool, pl.NWords)
	for i := range rows {
		rows[i] = -1 // Count must overwrite every entry
	}
	gotOcc := pl.Count(in, rows, occ)

	setOf := map[string]int32{}
	for mi := range lm.MCAs {
		ins := lm.MCAs[mi].Inputs
		key := fmt.Sprint(ins)
		set := pl.MCAs[mi].RowSet
		if prev, ok := setOf[key]; ok && prev != set {
			t.Fatalf("w=%d: MCA %d inputs %v in row set %d, an identical list is in %d", w, mi, ins, set, prev)
		}
		setOf[key] = set
		want := int32(0)
		for _, i := range ins {
			if in.Get(int(i)) {
				want++
			}
		}
		if got := rows[set]; got != want {
			t.Fatalf("w=%d: MCA %d inputs %v: %d spiking rows, want %d", w, mi, ins, got, want)
		}
	}
	if len(setOf) != pl.NSets {
		t.Fatalf("w=%d: %d distinct input lists compiled to %d row sets", w, len(setOf), pl.NSets)
	}

	n := in.Len()
	wantOcc := 0
	for wd := 0; wd*w < n; wd++ {
		hot := false
		for i := wd * w; i < min(n, (wd+1)*w); i++ {
			hot = hot || in.Get(i)
		}
		if occ[wd] != hot {
			t.Fatalf("w=%d: packet word %d occupancy %v, want %v", w, wd, occ[wd], hot)
		}
		if hot {
			wantOcc++
		}
	}
	if gotOcc != wantOcc {
		t.Fatalf("w=%d: %d occupied packet words, want %d", w, gotOcc, wantOcc)
	}

	// Delivered vs suppressed packets: each run of same-mPE MCAs receives
	// every distinct packet word its MCAs read once.
	var gotDel, gotSup, wantDel, wantSup int
	for _, r := range pl.Runs {
		for wi := r.WordLo; wi < r.WordHi; wi++ {
			if occ[pl.Words[wi]] {
				gotDel++
			} else {
				gotSup++
			}
		}
	}
	for lo := 0; lo < len(lm.MCAs); {
		hi := lo
		words := map[int]bool{}
		for ; hi < len(lm.MCAs) && lm.MCAs[hi].MPE == lm.MCAs[lo].MPE; hi++ {
			for _, i := range lm.MCAs[hi].Inputs {
				words[int(i)/w] = true
			}
		}
		for wd := range words {
			if in.LoadBits(wd*w, min(w, n-wd*w)) != 0 {
				wantDel++
			} else {
				wantSup++
			}
		}
		lo = hi
	}
	if gotDel != wantDel || gotSup != wantSup {
		t.Fatalf("w=%d: %d delivered / %d suppressed packets, want %d / %d", w, gotDel, gotSup, wantDel, wantSup)
	}
}

func TestLayerPlanCounts(t *testing.T) {
	cases := []struct {
		name  string
		insz  int
		lists [][]int32
		mpes  []int
	}{
		{"unsorted", 256, [][]int32{{150, 3, 77, 64, 63, 255}, {9, 8, 7, 200}}, []int{0, 0}},
		{"repeated", 192, [][]int32{{5, 5, 70, 5, 70, 191}, {5, 5, 5, 5}}, []int{0, 1}},
		{"straddle", 256, [][]int32{{60, 61, 62, 63, 64, 65, 66, 67}, {126, 127, 128, 129, 191, 192}}, []int{0, 1}},
		{"partial", 100, [][]int32{{0, 63, 64, 99}, {98, 99, 1}}, []int{0, 0}},
		// Two column stripes over the same row blocks (dense tiling): the
		// stripes' tiles share row sets, and the tiles of one mPE run share
		// source words.
		{"shared", 130, [][]int32{{0, 1, 2, 64, 65}, {66, 100, 129}, {0, 1, 2, 64, 65}, {66, 100, 129}}, []int{0, 0, 1, 1}},
		{"empty list", 70, [][]int32{{}, {69}}, []int{0, 1}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		for _, w := range []int{1, 13, 48, 64} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				lm := handLayer(tc.insz, tc.lists, tc.mpes)
				for _, density := range []float64{0, 0.05, 0.3, 1} {
					in := bitvec.New(tc.insz)
					for i := 0; i < tc.insz; i++ {
						if rng.Float64() < density {
							in.Set(i)
						}
					}
					checkCounts(t, lm, w, in)
				}
			})
		}
	}
}

// FuzzLayerPlanCounts checks the TestLayerPlanCounts property on fuzzed
// input lists, mPE runs, packet widths and spike vectors.
//
// lists is read as a sequence of MCAs: a header byte (bits 0-3: input count,
// bit 4: start a new mPE, bit 5: repeat the previous MCA's list) followed
// by the inputs as little-endian uint16s modulo insz.
func FuzzLayerPlanCounts(f *testing.F) {
	f.Add(uint16(256), uint8(63), []byte{3, 150, 0, 3, 0, 77, 0, 0x22, 0x12, 5, 0, 5, 0}, []byte{0xff, 0, 0x81})
	f.Add(uint16(100), uint8(12), []byte{4, 0, 0, 63, 0, 64, 0, 99, 0, 0x32}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(uint16(1), uint8(0), []byte{2, 0, 0, 0, 0}, []byte{1})
	f.Fuzz(func(t *testing.T, insz16 uint16, width uint8, lists, spikes []byte) {
		// Bytes past what the decoder reads only slow the fuzzer down.
		if len(lists) > 512 || len(spikes) > 64 {
			return
		}
		insz := int(insz16)%512 + 1
		w := int(width)%64 + 1
		var ins [][]int32
		var mpes []int
		mpe := 0
		for len(lists) > 0 && len(ins) < 64 {
			hdr := lists[0]
			lists = lists[1:]
			if hdr&16 != 0 {
				mpe++
			}
			var l []int32
			if hdr&32 != 0 && len(ins) > 0 {
				l = ins[len(ins)-1]
			} else {
				for k := 0; k < int(hdr&15) && len(lists) >= 2; k++ {
					l = append(l, int32(int(binary.LittleEndian.Uint16(lists))%insz))
					lists = lists[2:]
				}
			}
			ins = append(ins, l)
			mpes = append(mpes, mpe)
		}
		in := bitvec.New(insz)
		for i := 0; i < insz && i/8 < len(spikes); i++ {
			if spikes[i/8]>>(i%8)&1 != 0 {
				in.Set(i)
			}
		}
		checkCounts(t, handLayer(insz, ins, mpes), w, in)
	})
}
