package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"sparker/internal/datagen"
	"sparker/internal/profile"
)

// abtBuy generates SynthAbtBuy at the given scale, seeded by the
// benchmark seed.
func abtBuy(scale int, seed int64) *datagen.Dataset {
	cfg := datagen.AbtBuy().Scaled(scale)
	cfg.Seed = seed
	return datagen.Generate(cfg)
}

// newRNG derives an independent stream per purpose from the benchmark
// seed.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Streams of newRNG.
const (
	streamSplit uint64 = iota + 1
	streamOps
	streamArrivals
	streamPerturb
)

// jsonLine renders a profile in the serving layer's JSON-lines format:
// "id" plus one field per attribute, an array where a name repeats.
func jsonLine(p *profile.Profile) []byte {
	m := map[string]any{"id": p.OriginalID}
	for _, kv := range p.Attributes {
		switch v := m[kv.Key].(type) {
		case nil:
			m[kv.Key] = kv.Value
		case string:
			m[kv.Key] = []string{v, kv.Value}
		case []string:
			m[kv.Key] = append(v, kv.Value)
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("encode profile %q: %v", p.OriginalID, err)) // strings always encode
	}
	return append(b, '\n')
}

// jsonLines renders profiles as one JSON-lines body.
func jsonLines(ps []profile.Profile) []byte {
	var buf bytes.Buffer
	for i := range ps {
		buf.Write(jsonLine(&ps[i]))
	}
	return buf.Bytes()
}

// perturb returns another rendering of p: one token of its longest
// attribute dropped and two adjacent letters of another token swapped.
func perturb(p profile.Profile, rng *rand.Rand) profile.Profile {
	out := profile.Profile{OriginalID: p.OriginalID, SourceID: p.SourceID}
	out.Attributes = append(out.Attributes, p.Attributes...)
	longest := -1
	for i, kv := range out.Attributes {
		if longest < 0 || len(kv.Value) > len(out.Attributes[longest].Value) {
			longest = i
		}
	}
	if longest < 0 {
		return out
	}
	words := strings.Fields(out.Attributes[longest].Value)
	if len(words) > 1 {
		j := rng.IntN(len(words))
		words = append(words[:j], words[j+1:]...)
	}
	if len(words) > 0 {
		j := rng.IntN(len(words))
		if w := []byte(words[j]); len(w) > 1 {
			k := rng.IntN(len(w) - 1)
			w[k], w[k+1] = w[k+1], w[k]
			words[j] = string(w)
		}
	}
	out.Attributes[longest].Value = strings.Join(words, " ")
	return out
}

// serveData is the serving workloads' data: SynthAbtBuy with all of
// source A and half of source B indexed, the other half of B held out
// for inserts, and every B profile usable as a labelled query.
type serveData struct {
	a        []profile.Profile
	bIndexed []profile.Profile
	bHeld    []profile.Profile
	// queries are the JSON bodies of every B profile; partners[i] holds
	// the original IDs of query i's true A partners.
	queries  [][]byte
	partners []map[string]bool
}

func newServeData(scale int, seed int64) *serveData {
	ds := abtBuy(scale, seed)
	c := ds.Collection
	a := c.Profiles[:c.Separator]
	b := c.Profiles[c.Separator:]
	byB := map[string]map[string]bool{}
	for _, gt := range ds.GroundTruth {
		if byB[gt[1]] == nil {
			byB[gt[1]] = map[string]bool{}
		}
		byB[gt[1]][gt[0]] = true
	}
	perm := newRNG(seed, streamSplit).Perm(len(b))
	d := &serveData{a: a}
	for k, i := range perm {
		if k < len(b)/2 {
			d.bIndexed = append(d.bIndexed, b[i])
		} else {
			d.bHeld = append(d.bHeld, b[i])
		}
	}
	for i := range b {
		d.queries = append(d.queries, jsonLine(&b[i]))
		d.partners = append(d.partners, byB[b[i].OriginalID])
	}
	return d
}

// Operation kinds of a serving stream.
const (
	opQuery = iota
	opInsert
	opReplace
)

// op is one request of a serving stream.
type op struct {
	kind   int
	target int    // which server answers a query (round robin)
	query  int    // index into serveData.queries for a query
	body   []byte // request body
}

// opStream draws n operations from the seed: a query share of queries
// of random B profiles, round robin over targets servers, and writes
// split evenly between inserting held-out B profiles (each once, in a
// seeded order) and replacing indexed B profiles with a perturbed
// rendering.
func (d *serveData) opStream(n int, queryShare float64, targets int, seed int64) []op {
	rng := newRNG(seed, streamOps)
	prng := newRNG(seed, streamPerturb)
	held := rng.Perm(len(d.bHeld))
	ops := make([]op, n)
	queries := 0
	for i := range ops {
		if rng.Float64() < queryShare {
			ops[i] = op{kind: opQuery, target: queries % targets, query: rng.IntN(len(d.queries))}
			ops[i].body = d.queries[ops[i].query]
			queries++
			continue
		}
		if rng.IntN(2) == 0 && len(held) > 0 {
			p := d.bHeld[held[0]]
			held = held[1:]
			ops[i] = op{kind: opInsert, body: jsonLine(&p)}
			continue
		}
		p := perturb(d.bIndexed[rng.IntN(len(d.bIndexed))], prng)
		ops[i] = op{kind: opReplace, body: jsonLine(&p)}
	}
	return ops
}

// quality accumulates query recall and precision against the labels.
type quality struct {
	queries, hits      int // labelled queries; those with a true partner among the matches
	returned, relevant int // matches returned; those that are true partners
}

// add scores one answer against the query's true partners.
func (q *quality) add(partners map[string]bool, a *queryAnswer) {
	if len(partners) == 0 {
		return
	}
	q.queries++
	hit := false
	for _, m := range a.Matches {
		q.returned++
		if m.Source == 0 && partners[m.OriginalID] {
			q.relevant++
			hit = true
		}
	}
	if hit {
		q.hits++
	}
}

func (q quality) recall() Ratio    { return Ratio{float64(q.hits), float64(q.queries)} }
func (q quality) precision() Ratio { return Ratio{float64(q.relevant), float64(q.returned)} }
