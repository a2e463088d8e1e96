package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"djinn/internal/tensor"
)

// outcome classifies one request.
type outcome int

const (
	ok      outcome = iota
	wrong           // answered, but not the reference answer
	failed          // transport or server error
	refused         // shed by admission or backpressure
	numOutcomes
)

func (o outcome) String() string {
	return [...]string{"ok", "wrong", "failed", "refused"}[o]
}

// phase is what one load phase saw.
type phase struct {
	name    string
	counts  [numOutcomes]int64
	lat     []time.Duration // correct answers only; open loop from the scheduled send
	lag     []time.Duration // open loop: how late each send started
	good    int64           // correct answers within the SLO
	elapsed time.Duration
	// e2eSum and lagSum total latency and lag over the correct answers.
	e2eSum, lagSum time.Duration
}

func (p *phase) sent() int64 {
	var n int64
	for _, c := range p.counts {
		n += c
	}
	return n
}

// failures counts every request that did not return a correct answer.
func (p *phase) failures() int64 { return p.sent() - p.counts[ok] }

// quantile is the p-quantile of latency over every request sent, a
// request without a correct answer counting as slower than any answer.
func (p *phase) quantile(q float64) time.Duration {
	n := int(p.sent())
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank >= len(p.lat) {
		return time.Duration(math.MaxInt64)
	}
	s := slices.Clone(p.lat)
	slices.Sort(s)
	return s[max(rank, 0)]
}

// lagQuantile is the q-quantile of how late sends started.
func (p *phase) lagQuantile(q float64) time.Duration {
	if len(p.lag) == 0 {
		return 0
	}
	s := slices.Clone(p.lag)
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func (p *phase) String() string {
	return fmt.Sprintf("phase %-9s sent=%d succeeded=%d failed=%d refused=%d wrong=%d elapsed=%.2fs p50=%.3fms p90=%.3fms p99=%.3fms lag_p99=%.3fms",
		p.name, p.sent(), p.counts[ok], p.counts[failed], p.counts[refused], p.counts[wrong], p.elapsed.Seconds(),
		ms(p.quantile(0.5)), ms(p.quantile(0.9)), ms(p.quantile(0.99)), ms(p.lagQuantile(0.99)))
}

// merge adds per-sender results into p.
func (p *phase) merge(o *phase) {
	for i := range p.counts {
		p.counts[i] += o.counts[i]
	}
	p.lat = append(p.lat, o.lat...)
	p.lag = append(p.lag, o.lag...)
	p.good += o.good
	p.e2eSum += o.e2eSum
	p.lagSum += o.lagSum
}

// schedule draws Poisson arrival offsets at rate per second over d.
func schedule(rng *tensor.RNG, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, t)
	}
}

// issueFunc sends request i on sender w and checks the answer.
type issueFunc func(w, i int) outcome

// openLoop sends request base+k at offset sched[k] from the phase
// start. The senders take the next due request as they free up, so a
// stall delays later sends; latency is timed from the scheduled send
// time and each send's lateness is kept as lag.
func openLoop(name string, sched []time.Duration, base int, slo time.Duration, issue issueFunc) *phase {
	var next atomic.Int64
	per := make([]phase, senders)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &per[w]
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				due := start.Add(sched[k])
				time.Sleep(time.Until(due))
				t0 := time.Now()
				o := issue(w, base+k)
				lat := time.Since(due)
				p.counts[o]++
				p.lag = append(p.lag, t0.Sub(due))
				if o == ok {
					p.lat = append(p.lat, lat)
					p.e2eSum += lat
					p.lagSum += t0.Sub(due)
					if lat <= slo {
						p.good++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	res := &phase{name: name, elapsed: time.Since(start)}
	for w := range per {
		res.merge(&per[w])
	}
	return res
}

// closedLoop runs every sender back to back for d, or until limit
// requests are sent when limit > 0: each sends its next request as
// soon as its previous answer arrives.
func closedLoop(name string, d time.Duration, limit, base int, slo time.Duration, issue issueFunc) *phase {
	var next atomic.Int64
	per := make([]phase, senders)
	var wg, ready sync.WaitGroup
	ready.Add(senders)
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &per[w]
			// The senders start together, as clients that arrive at once.
			ready.Done()
			ready.Wait()
			for time.Now().Before(stop) {
				k := int(next.Add(1) - 1)
				if limit > 0 && k >= limit {
					return
				}
				t0 := time.Now()
				o := issue(w, base+k)
				lat := time.Since(t0)
				p.counts[o]++
				if o == ok {
					p.lat = append(p.lat, lat)
					if lat <= slo {
						p.good++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	res := &phase{name: name, elapsed: time.Since(start)}
	for w := range per {
		res.merge(&per[w])
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
