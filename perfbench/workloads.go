package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/tonic"
	"djinn/internal/workload"
)

const (
	sentenceWords = workload.SentenceWords // words per NLP query (Table 3)
	digImages     = workload.DIGImages     // images per DIG query (Table 3)
	senders       = 2                      // connections and sender goroutines; the host has 2 cores
)

// spec fixes one workload. The rates, SLOs, corpus sizes and request
// caps are set from measurement on a 2-core host; README.md records
// why each workload exists and which per-layer metrics it should move.
type spec struct {
	name string
	apps []models.App
	// rate is the open-loop arrival rate in queries per second.
	rate float64
	// slo is the latency limit goodput_qps counts answers within.
	slo time.Duration
	// tail is the percentile the traced run reports as loadgen.tail_ms.
	// On a shared 2-vCPU host the open-loop latencies moved by up to half
	// their median between runs minutes apart (p99 by up to 0.9), too
	// much for an end-to-end bound; the closed loop, which keeps the
	// cores busy, moved far less.
	tail float64
	// pool is how many distinct inputs the workload draws from.
	pool int
	// zipf > 0 draws inputs from a Zipf law with this exponent, so
	// inputs repeat and the gateway cache is used; 0 draws uniformly.
	zipf float64
	// requests caps the requests one run sends; references are computed
	// for all of them before timing, and the closed loop stops at the
	// cap.
	requests int
	// http sends /v1/infer JSON to the gateway instead of Tonic
	// clients over DJRT.
	http bool
}

var specs = []spec{
	{name: "nlp-wire", apps: []models.App{models.POS, models.CHK, models.NER},
		rate: 30, slo: 50 * time.Millisecond, tail: 0.90, pool: 32, requests: 1 << 14},
	{name: "dig-wire", apps: []models.App{models.DIG},
		rate: 3, slo: time.Second, tail: 0.90, pool: 6, requests: 1 << 12},
	{name: "nlp-http-cache", apps: []models.App{models.POS, models.NER},
		rate: 60, slo: 50 * time.Millisecond, tail: 0.90, pool: 100000, zipf: 1.2, requests: 1 << 14, http: true},
}

func specFor(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// key names one distinct query: an app (index into spec.apps) and an
// input (pool item).
type key struct{ app, item int }

// inputs is everything a workload sends, generated from the seed: the
// app and pool item of each request 0..requests-1, the payloads those
// requests use, and their reference answers.
type inputs struct {
	spec
	seed      uint64
	reqs      []key
	sentences map[int]string
	digits    map[int][][]float32
	// want is the reference answer of every key the requests use:
	// per-word tags for the NLP apps, per-image classes for DIG.
	want map[key][]string
}

func genInputs(s spec, seed uint64) *inputs {
	in := &inputs{spec: s, seed: seed, sentences: map[int]string{}, digits: map[int][][]float32{}}
	rng := tensor.NewRNG(seed)
	var cdf []float64
	if s.zipf > 0 {
		cdf = make([]float64, s.pool)
		var sum float64
		for k := range cdf {
			sum += 1 / math.Pow(float64(k+1), s.zipf)
			cdf[k] = sum
		}
		for k := range cdf {
			cdf[k] /= sum
		}
	}
	in.reqs = make([]key, s.requests)
	for i := range in.reqs {
		k := key{app: rng.Intn(len(s.apps))}
		if cdf == nil {
			k.item = rng.Intn(s.pool)
		} else {
			k.item, _ = slices.BinarySearch(cdf, rng.Float64())
			k.item = min(k.item, s.pool-1)
		}
		in.reqs[i] = k
		// Each item's payload comes from its own generator, so it does
		// not depend on which other items the run draws.
		if _, done := in.sentences[k.item]; done {
			continue
		}
		if _, done := in.digits[k.item]; done {
			continue
		}
		irng := tensor.NewRNG((seed+1)*0x9e3779b97f4a7c15 ^ uint64(k.item+1)*0xbf58476d1ce4e5b9)
		if s.apps[0] == models.DIG {
			in.digits[k.item], _ = workload.Digits(irng, digImages)
		} else {
			in.sentences[k.item] = workload.Sentence(irng, sentenceWords)
		}
	}
	return in
}

// req is request i's key; indices wrap at the cap.
func (in *inputs) req(i int) key { return in.reqs[i%len(in.reqs)] }

// answer runs one query through the Tonic app over b and returns its
// discrete answer: tags per word, or classes per image rendered as
// strings.
func (in *inputs) answer(b service.Backend, k key) ([]string, error) {
	var ws []tonic.TaggedWord
	var err error
	switch in.apps[k.app] {
	case models.POS:
		ws, err = tonic.NewPOS(b).Tag(in.sentences[k.item])
	case models.CHK:
		ws, err = tonic.NewCHK(b).Chunk(in.sentences[k.item])
	case models.NER:
		ws, err = tonic.NewNER(b).Recognize(in.sentences[k.item])
	case models.DIG:
		preds, err := tonic.NewDIG(b).Recognize(in.digits[k.item])
		if err != nil {
			return nil, err
		}
		out := make([]string, len(preds))
		for i, p := range preds {
			out[i] = p.Label
		}
		return out, nil
	default:
		return nil, fmt.Errorf("no workload drives %s", in.apps[k.app])
	}
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Tag
	}
	return out, nil
}

// references computes the reference answer of every key requests reqs
// use, on in-process plans split over the host's cores.
func (in *inputs) references(reqs []int) error {
	var keys []key
	in.want = map[key][]string{}
	for _, i := range reqs {
		k := in.req(i)
		if _, dup := in.want[k]; !dup {
			in.want[k] = nil
			keys = append(keys, k)
		}
	}
	got := make([][]string, len(keys))
	errs := make([]error, senders)
	nets := referenceNets(in.apps)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pb := newPlanBackend(nets)
			for j := int(next.Add(1) - 1); j < len(keys); j = int(next.Add(1) - 1) {
				got[j], errs[w] = in.answer(pb, keys[j])
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for j, k := range keys {
		in.want[k] = got[j]
	}
	return errors.Join(errs...)
}

// check classifies one reply against the reference.
func (in *inputs) check(k key, got []string, err error) outcome {
	switch {
	case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrShuttingDown):
		return refused
	case err != nil:
		return failed
	case !slices.Equal(got, in.want[k]):
		return wrong
	}
	return ok
}

// wireSender is one DJRT connection with its Tonic apps.
type wireSender struct {
	client *service.Client
	tap    *clientTap
}

// httpReply is the part of a /v1/infer answer the check reads.
type httpReply struct {
	Cached bool `json:"cached"`
	Result struct {
		Words []struct {
			Tag string `json:"tag"`
		} `json:"words"`
	} `json:"result"`
}

// driver issues the workload's requests against a running stack.
type driver struct {
	*inputs
	wire   []wireSender
	client *http.Client
	url    string
	bodies map[key][]byte // /v1/infer JSON per key
	// obs, when set, receives each HTTP request's round trip and cache
	// flag (the traced run).
	obs func(w int, rt time.Duration, cached bool)
}

func newDriver(in *inputs, st *stack, tapped bool) (*driver, error) {
	d := &driver{inputs: in}
	if in.http {
		d.url = st.httpURL
		d.client = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			DisableCompression:  true,
		}}
		d.bodies = map[key][]byte{}
		for _, k := range in.reqs {
			if _, done := d.bodies[k]; done {
				continue
			}
			b, err := json.Marshal(map[string]string{"app": tonic.ServiceName(in.apps[k.app]), "text": in.sentences[k.item]})
			if err != nil {
				return nil, err
			}
			d.bodies[k] = b
		}
		return d, nil
	}
	for w := 0; w < senders; w++ {
		c, err := service.Dial(st.djrtAddr)
		if err != nil {
			d.close()
			return nil, err
		}
		ws := wireSender{client: c}
		if tapped {
			ws.tap = &clientTap{next: c, span: &span{}}
		}
		d.wire = append(d.wire, ws)
	}
	return d, nil
}

func (d *driver) close() {
	for _, ws := range d.wire {
		ws.client.Close()
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// issue sends request i on sender w and checks the answer.
func (d *driver) issue(w, i int) outcome {
	got, err := d.send(w, i)
	return d.check(d.req(i), got, err)
}

// send sends request i on sender w and returns its answer unchecked.
func (d *driver) send(w, i int) ([]string, error) {
	k := d.req(i)
	if d.http {
		return d.sendHTTP(w, k)
	}
	ws := d.wire[w]
	if ws.tap == nil || !ws.tap.span.on.Load() {
		return d.answer(ws.client, k)
	}
	ws.tap.begin()
	got, err := d.answer(ws.tap, k)
	ws.tap.end(tonic.ServiceName(d.apps[k.app]))
	return got, err
}

// errRefused marks an HTTP answer that sheds load (429 or 503).
var errRefused = fmt.Errorf("refused: %w", service.ErrOverloaded)

func (d *driver) sendHTTP(w int, k key) ([]string, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(d.bodies[k]))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable:
		return nil, errRefused
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var r httpReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, nil // an unreadable answer is a wrong one
	}
	if d.obs != nil {
		d.obs(w, rt, r.Cached)
	}
	tags := make([]string, len(r.Result.Words))
	for k, wd := range r.Result.Words {
		tags[k] = wd.Tag
	}
	return tags, nil
}

// firstRequests returns, per app of the workload, the index of the
// first request that uses it.
func (in *inputs) firstRequests() []int {
	var reqs []int
	for a := range in.apps {
		if i := slices.IndexFunc(in.reqs, func(k key) bool { return k.app == a }); i >= 0 {
			reqs = append(reqs, i)
		}
	}
	return reqs
}
