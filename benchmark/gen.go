package main

import (
	"encoding/json"
	"math/rand"
)

// The seeded job generator of serve_mixed. The server receives only the
// generated request bodies, never the seed.

type jobKind int

const (
	kindMiss   jobKind = iota // a request no one has made: solve, journal, cache
	kindHot                   // one of the eight pre-warmed requests: memory-tier hit
	kindCold                  // an earlier miss of this server: disk tier once evicted
	kindCancel                // a fresh request, DELETEd right after it is admitted
)

func (k jobKind) String() string {
	return [...]string{"miss", "hot", "cold", "cancel"}[k]
}

// deckSize is the length of one shuffled deck of job kinds. Dealing whole
// decks keeps the mix exact — 45 % misses, 45 % hot hits, 5 % cold hits,
// 5 % cancels, one store-separation job in nine misses — whatever the seed,
// so that per-job averages compare between seeds; the seed decides the
// order and the requests themselves.
const deckSize = 40

const (
	missesPerDeck   = 18
	hotPerDeck      = 18
	coldPerDeck     = 2
	cancelsPerDeck  = 2
	storesepPerDeck = 2 // of the misses
)

var deck = func() []jobKind {
	d := make([]jobKind, 0, deckSize)
	for kind, n := range []int{kindMiss: missesPerDeck, kindHot: hotPerDeck, kindCold: coldPerDeck, kindCancel: cancelsPerDeck} {
		for i := 0; i < n; i++ {
			d = append(d, jobKind(kind))
		}
	}
	return d
}()

const (
	hotJobCount      = 8
	missSteps        = 3
	storesepNodes    = 16
	airfoilScaleLo   = 0.08
	airfoilScaleSpan = 0.04
	storeScaleLo     = 0.05
	storeScaleSpan   = 0.01
)

// jobRequest is the POST /jobs body; the field names are the service's.
type jobRequest struct {
	Case  string  `json:"case"`
	Nodes int     `json:"nodes"`
	Steps int     `json:"steps"`
	Scale float64 `json:"scale"`
}

func (j jobRequest) body() []byte {
	b, err := json.Marshal(j)
	if err != nil {
		panic(err) // plain struct of numbers and a string
	}
	return b
}

// plannedJob is one request of the sequence.
type plannedJob struct {
	kind jobKind
	body []byte
	// ref is, for a hot job, the index of the pre-warmed request; for a
	// cold job, the sequence index of the earlier miss it repeats.
	ref int
}

// hotJobs are the eight pre-warmed requests. They are fixed, not seeded:
// a hit copies its artifacts, so hit latency follows artifact size, and
// the sizes must not move with the seed.
func hotJobs() []jobRequest {
	var out []jobRequest
	for _, nodes := range []int{4, 6, 8} {
		for _, steps := range []int{missSteps, missSteps + 1} {
			out = append(out, jobRequest{Case: "airfoil", Nodes: nodes, Steps: steps, Scale: 0.1})
		}
	}
	out = append(out,
		jobRequest{Case: "airfoil", Nodes: 5, Steps: missSteps, Scale: 0.1},
		jobRequest{Case: "airfoil", Nodes: 7, Steps: missSteps, Scale: 0.1})
	return out[:hotJobCount]
}

// genJobs deals n jobs (a multiple of deckSize) from seeded shuffled decks.
// Unique requests differ in scale, drawn stratified over the range so that
// every sequence covers it evenly: each of m fresh requests gets a scale in
// its own one of m equal slices (dealt in seeded order), so none repeats.
func genJobs(seed int64, n int) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	hot := hotJobs()
	decks := n / deckSize
	stores := decks * storesepPerDeck
	fresh := decks*(missesPerDeck+cancelsPerDeck) - stores // fresh airfoil requests: misses and cancels
	freshSlice, storeSlice := rng.Perm(fresh), rng.Perm(stores)
	freshSeen, storeSeen := 0, 0
	var misses []int // sequence indices of misses, oldest first
	out := make([]plannedJob, 0, n)
	for d := 0; d < decks; d++ {
		kinds := append([]jobKind(nil), deck...)
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		missInDeck := 0
		for _, kind := range kinds {
			job := plannedJob{kind: kind}
			switch kind {
			case kindMiss, kindCancel:
				req := jobRequest{Case: "airfoil", Steps: missSteps,
					Nodes: []int{4, 6, 8}[freshSeen%3]}
				if kind == kindMiss && missInDeck%(missesPerDeck/storesepPerDeck) == 0 {
					req.Case, req.Nodes = "storesep", storesepNodes
					req.Scale = storeScaleLo + storeScaleSpan*(float64(storeSlice[storeSeen])+rng.Float64())/float64(stores)
					storeSeen++
				} else {
					req.Scale = airfoilScaleLo + airfoilScaleSpan*(float64(freshSlice[freshSeen])+rng.Float64())/float64(fresh)
					freshSeen++
				}
				if kind == kindMiss {
					missInDeck++
					misses = append(misses, len(out))
				}
				job.body = req.body()
			case kindHot:
				job.ref = rng.Intn(hotJobCount)
				job.body = hot[job.ref].body()
			case kindCold:
				if len(misses) == 0 {
					// Nothing to repeat yet: only at the head of the
					// first deck. Serve a hot request instead.
					job.kind, job.ref = kindHot, rng.Intn(hotJobCount)
					job.body = hot[job.ref].body()
					break
				}
				// The oldest miss not yet repeated: the likeliest to have
				// left the memory tier.
				job.ref, misses = misses[0], misses[1:]
				job.body = out[job.ref].body
			}
			out = append(out, job)
		}
	}
	return out
}
