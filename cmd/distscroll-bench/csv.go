package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/hcilab/distscroll/internal/hand"
	"github.com/hcilab/distscroll/internal/participant"
	"github.com/hcilab/distscroll/internal/sim"
	"github.com/hcilab/distscroll/internal/study"
	"github.com/hcilab/distscroll/internal/technique"
)

// writeCSVs exports the raw data behind the E2 user study (per-trial) and
// the E3 technique comparison (per-condition) for external analysis.
func writeCSVs(dir string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csv dir: %w", err)
	}
	if err := writeTrials(filepath.Join(dir, "trials.csv"), seed); err != nil {
		return err
	}
	return writeConditions(filepath.Join(dir, "conditions.csv"), seed)
}

func writeTrials(path string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()

	for pid := 0; pid < 12; pid++ {
		pseed := seed + uint64(pid)*101
		rng := sim.NewRand(pseed)
		specs := study.GenerateTrials(10, []int{1, 2, 4, 8}, 5, rng)
		res, err := study.RunSession(study.SessionConfig{
			Seed:        pseed,
			Participant: participant.DefaultConfig(),
			Entries:     10,
			Trials:      specs,
		})
		if err != nil {
			return fmt.Errorf("session P%02d: %w", pid+1, err)
		}
		if err := study.WriteTrialsCSV(f, fmt.Sprintf("P%02d", pid+1), res.Results); err != nil {
			return err
		}
	}
	return nil
}

func writeConditions(path string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer f.Close()

	rng := sim.NewRand(seed)
	var results []study.ConditionResult
	for _, glove := range []hand.Glove{hand.BareHand(), hand.WinterGlove()} {
		techs := []technique.Technique{
			technique.NewDistScroll(),
			technique.NewTilt(),
			technique.NewButtonRepeat(),
			technique.NewWheel(),
			technique.NewStylus(),
			technique.NewHybrid(),
		}
		for _, tech := range techs {
			res, err := study.RunCondition(study.Condition{
				Technique:  tech,
				Glove:      glove,
				Entries:    20,
				Amplitudes: []int{1, 2, 4, 8, 16},
				Reps:       40,
			}, rng.Split())
			if err != nil {
				return fmt.Errorf("condition %s/%s: %w", tech.Name(), glove.Name, err)
			}
			results = append(results, res)
		}
	}
	return study.WriteConditionsCSV(f, results)
}
