package main

import (
	"bytes"
	"reflect"
	"testing"
)

func TestJobGeneratorIsSeeded(t *testing.T) {
	const n = 4 * deckSize
	a, b, c := genJobs(7, n), genJobs(7, n), genJobs(8, n)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different job sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same job sequence")
	}
}

func TestJobMixIsExact(t *testing.T) {
	const decks = 4
	for seed := int64(1); seed <= 5; seed++ {
		jobs := genJobs(seed, decks*deckSize)
		if len(jobs) != decks*deckSize {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(jobs), decks*deckSize)
		}
		count := map[jobKind]int{}
		stores := 0
		fresh := map[string]bool{}
		for i, j := range jobs {
			count[j.kind]++
			switch j.kind {
			case kindMiss, kindCancel:
				if fresh[string(j.body)] {
					t.Errorf("seed %d: job %d repeats a request that must be unique: %s", seed, i, j.body)
				}
				fresh[string(j.body)] = true
				if bytes.Contains(j.body, []byte("storesep")) {
					stores++
				}
			case kindCold:
				if j.ref >= i || jobs[j.ref].kind != kindMiss || !bytes.Equal(j.body, jobs[j.ref].body) {
					t.Errorf("seed %d: cold job %d does not repeat an earlier miss (ref %d)", seed, i, j.ref)
				}
			case kindHot:
				if !bytes.Equal(j.body, hotJobs()[j.ref].body()) {
					t.Errorf("seed %d: hot job %d is not pre-warmed request %d", seed, i, j.ref)
				}
			}
		}
		// A cold job dealt before any miss is served as a hot one; that can
		// only happen at the head of the first deck.
		demoted := decks*coldPerDeck - count[kindCold]
		if demoted < 0 || demoted > coldPerDeck {
			t.Errorf("seed %d: %d cold jobs", seed, count[kindCold])
		}
		want := map[jobKind]int{kindMiss: decks * missesPerDeck, kindHot: decks*hotPerDeck + demoted,
			kindCold: decks*coldPerDeck - demoted, kindCancel: decks * cancelsPerDeck}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("seed %d: mix %v, want %v", seed, count, want)
		}
		if stores != decks*storesepPerDeck {
			t.Errorf("seed %d: %d store-separation misses, want %d", seed, stores, decks*storesepPerDeck)
		}
	}
}

func TestHotJobsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, j := range hotJobs() {
		seen[string(j.body())] = true
	}
	if len(seen) != hotJobCount {
		t.Errorf("%d distinct hot requests, want %d", len(seen), hotJobCount)
	}
}

func TestPayloadsAreSeeded(t *testing.T) {
	a, b, c := genPayloads(3, 24), genPayloads(3, 24), genPayloads(4, 24)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different payload sets")
	}
	if reflect.DeepEqual(a, c) || a.roundChecksum() == c.roundChecksum() {
		t.Error("different seeds gave the same payloads")
	}
}

// The pattern's expected checksum is computed from the payloads alone; one
// real round on a small world must agree with it.
func TestRoundChecksumMatchesARealRound(t *testing.T) {
	pl := genPayloads(5, 4)
	run := runPattern(pl, 3, nil, 0, nil)
	if want := 3 * pl.roundChecksum(); run.checksum != want || run.badColl != 0 {
		t.Errorf("3 rounds on 4 ranks: checksum %x (want %x), %d bad collectives", run.checksum, want, run.badColl)
	}
}
