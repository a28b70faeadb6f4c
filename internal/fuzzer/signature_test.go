package fuzzer

import (
	"reflect"
	"sync"
	"testing"

	"github.com/repro/aegis/internal/microarch"
	"github.com/repro/aegis/internal/rng"
)

// TestColdSignatureMatchesFreshBench is the differential check on the
// pooled signature benches: 500 seeded gadgets, each measured twice in a
// shuffled order across four goroutines sharing the pool, must each equal
// the signature a freshly built bench measures. A reset that missed any
// state would let one gadget's run leak into the next one's signature.
func TestColdSignatureMatchesFreshBench(t *testing.T) {
	legal := legalAMD(t)
	f, err := New(legal, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	gadgets := make([]Gadget, 500)
	ops := make([][2]microarch.Op, len(gadgets))
	want := make([]gadgetSig, len(gadgets))
	for i := range gadgets {
		gadgets[i] = Gadget{Reset: legal[r.Intn(len(legal))], Trigger: legal[r.Intn(len(legal))]}
		ops[i] = gadgets[i].ops()
		if want[i], err = f.newBench(nil, nil).signature(ops[i][:]); err != nil {
			t.Fatal(err)
		}
	}
	order := make([]int, 0, 2*len(gadgets))
	for i := range gadgets {
		order = append(order, i, i)
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(order); k += workers {
				i := order[k]
				got, err := f.coldSignature(ops[i][:])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("gadget %s: pooled signature differs from a fresh bench's", gadgets[i].Key())
				}
			}
		}(w)
	}
	wg.Wait()
}
