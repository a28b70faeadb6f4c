package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/repro/aegis/internal/attack"
	"github.com/repro/aegis/internal/trace"
)

// TestAttackTrainingPinned pins the attackers' training end to end: every
// per-epoch loss and accuracy of the WFA, KSA and MEA curves of Fig. 1,
// their victim accuracies, and the averaging attacker of the multiple-tries
// analysis. A change to how the attacks split, normalise, initialise,
// train or decode moves a digest here.
func TestAttackTrainingPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("attack training skipped in -short mode")
	}
	want := map[string]string{
		"figure1":       "6f09331c49406574",
		"multipletries": "eeb6ddd9cf438ed0",
	}
	got := map[string]string{}

	sc := TestScale(1)
	ta, fig1, err := trainAll(sc)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, a := range fig1.Attacks {
		fmt.Fprintf(h, "attack %+v\n", a)
	}
	// Fig. 1 plots validation curves only; retrain both classifiers on
	// the same datasets to pin their training loss and accuracy too.
	for i, ds := range []*trace.Dataset{ta.wfaData, ta.ksaData} {
		cfg := attack.TrainConfig{Epochs: sc.Epochs, Seed: sc.Seed + uint64(i)}
		_, stats, err := attack.TrainClassifier(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "epochs %+v\n", stats)
	}
	got["figure1"] = hex.EncodeToString(h.Sum(nil))[:16]

	sc = TestScale(17)
	sc.Sites = 4
	mt, err := MultipleTriesAnalysis(sc, []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	h = sha256.New()
	fmt.Fprintf(h, "clean %v\n", mt.CleanAccuracy)
	for _, p := range mt.Points {
		fmt.Fprintf(h, "point %+v\n", p)
	}
	got["multipletries"] = hex.EncodeToString(h.Sum(nil))[:16]

	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s digest = %s, want %s", k, got[k], w)
		}
	}
}
