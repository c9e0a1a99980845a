package primepar

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/partition"
)

// savedPlanBytes searches a small plan and returns the bytes Save writes.
func savedPlanBytes(f *testing.F) []byte {
	f.Helper()
	cluster, err := NewCluster(8, 4)
	if err != nil {
		f.Fatal(err)
	}
	plan, err := Search(OPT6B7(), cluster)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "plan.json")
	if err := plan.Save(path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// withField returns the saved plan with one top-level JSON field replaced.
func withField(f *testing.F, data []byte, key string, value any) []byte {
	f.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		f.Fatal(err)
	}
	m[key] = value
	out, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	return out
}

// FuzzLoadPlan feeds arbitrary bytes through LoadPlan's decode-and-validate
// step. Every input must return an error, or a plan whose cluster rebuilds
// from its own description and whose digest, description and Check (which
// simulates it) run, quickly and without a panic. The seeds are a saved plan and hostile edits of it: a
// 2048-device machine, a zero profile, a digest that does not match, and a
// digest-less plan whose first strategy is a prime token of order 2^62
// (twice that order overflowed the bit budget check).
func FuzzLoadPlan(f *testing.F) {
	saved := savedPlanBytes(f)
	f.Add(saved)
	f.Add(withField(f, saved, "devices", 2048))
	f.Add(withField(f, saved, "profile", map[string]any{}))
	f.Add(withField(f, saved, "digest", "0000000000000000"))
	var pf planFile
	if err := json.Unmarshal(saved, &pf); err != nil {
		f.Fatal(err)
	}
	pf.Seqs[0] = partition.NewSeq(partition.NewPrime(1<<62, 0, 1, 2))
	f.Add(withField(f, withField(f, saved, "digest", ""), "strategies", pf.Seqs))
	f.Add([]byte(`{"format_version":1}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A hang never returns to a check after the call, so a watchdog
		// crashes the worker instead, and the fuzzer records the input.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				panic(fmt.Sprintf("decoding has run for 5s on %q", data))
			}
		}()
		p, err := decodePlan(data)
		if err != nil {
			return
		}
		if p == nil || p.Cluster == nil {
			t.Fatal("no error and no plan")
		}
		c := p.Cluster
		if _, err := NewClusterWithProfile(c.NumDevices, c.DevicesPerNode, c.Profile); err != nil {
			t.Fatalf("accepted a plan whose cluster does not rebuild: %v", err)
		}
		_ = p.Digest()
		_ = p.Describe()
		_, _ = p.Check() // validates and simulates every strategy
	})
}
