package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// fingerprints.json holds, for the seeds 1..committedSeeds, the SHA-256
// of every batch request's encoded result and of the service workload's
// primed responses. Simulated results are pure functions of the
// requests, so these never change unless the simulation does — which
// for this benchmark is a failure, not a speed-up.
//
//go:embed testdata/fingerprints.json
var fingerprintsJSON []byte

const (
	committedSeeds   = 16
	fingerprintsPath = "perf/testdata/fingerprints.json"
)

// checkCommitted compares a run's fingerprints with the committed ones
// for its seed; a seed without committed fingerprints checks nothing.
func checkCommitted(workload string, seed int64, names, fps []string) []error {
	var all map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return []error{fmt.Errorf("%s: %v", fingerprintsPath, err)}
	}
	want, ok := all[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	var errs []error
	for i, name := range names {
		if key := workload + "/" + name; want[key] != fps[i] {
			errs = append(errs, fmt.Errorf("%s: fingerprint %.12s differs from the committed %.12s (seed %d)",
				key, fps[i], want[key], seed))
		}
	}
	return errs
}

// updateFingerprints recomputes the committed fingerprints. Run it from
// the repository root, and only for a change that is meant to move the
// simulated results.
func updateFingerprints() error {
	all := map[string]map[string]string{}
	for seed := int64(1); seed <= committedSeeds; seed++ {
		fps := map[string]string{}
		for _, w := range workloadNames {
			if !isBatch(w) {
				continue
			}
			b, err := setupBatch(w, seed, false)
			if err != nil {
				return err
			}
			for i, name := range b.names {
				fps[w+"/"+name] = b.want[i]
			}
		}
		s, err := setupService(seed, false)
		if err != nil {
			return err
		}
		fps["service_mix/primed"] = s.primedFingerprint()
		s.close()
		all[strconv.FormatInt(seed, 10)] = fps
		fmt.Printf("seed %d: %d fingerprints\n", seed, len(fps))
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fingerprintsPath, append(data, '\n'), 0o644)
}
