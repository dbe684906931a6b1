package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hitlist6/internal/core"
	"hitlist6/internal/dnswire"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/rng"
	"hitlist6/internal/serve"
)

// The serve workload's shape: the hitlist6serve -timeline deployment,
// with a publishing scan every scanEvery while one open-loop UDP client
// steps through dnsRates and one keep-alive HTTP connection queries at
// httpRate.
const (
	serveScale = 1.0 / 2000
	serveZone  = "hitlist6.serve"
	scanEvery  = 500 * time.Millisecond
	refRate    = 30000 // the rate dns_p50_ms, dns_p99_ms and dns_loss are read at
	dnsLimitMs = 5.0   // the p99 latency limit dns_max_qps is judged by
	httpRate   = 1000
	// lostAfter is how long a query may stay unanswered before it counts
	// as lost; a lost query's latency reads as lostAfter.
	lostAfter = time.Second
)

var (
	dnsRates = []int{10000, 30000, 60000, 90000}
	// Queries cycle through these datasets.
	datasets = []string{"live", "icmp", "alias", "gfw"}
	// protoLabels are the protocol keys of an HTTP answer.
	protoLabels = map[netmodel.Protocol]string{
		netmodel.ICMP: "icmp", netmodel.TCP443: "tcp443", netmodel.TCP80: "tcp80",
		netmodel.UDP443: "udp443", netmodel.UDP53: "udp53",
	}
)

// queryKeys draws n query addresses: every other key from the live set,
// the rest uniformly from announced prefixes.
func queryKeys(r *rng.Stream, n int, live []ip6.Addr, prefixes []ip6.Prefix) []ip6.Addr {
	keys := make([]ip6.Addr, n)
	for i := range keys {
		if i%2 == 0 && len(live) > 0 {
			keys[i] = live[r.Intn(len(live))]
		} else {
			keys[i] = prefixes[r.Intn(len(prefixes))].RandomAddr(r)
		}
	}
	return keys
}

// snapshotLog holds every snapshot the service published, by
// generation, so answers can be checked against the snapshots that were
// live while they were in flight.
type snapshotLog map[uint64]*serve.Snapshot

func (s snapshotLog) add(snap *serve.Snapshot) { s[snap.Generation] = snap }

// anyLive reports whether ok holds for some snapshot with a generation
// in [g0, g1].
func (s snapshotLog) anyLive(g0, g1 uint64, ok func(*serve.Snapshot) bool) bool {
	for g := g0; g <= g1; g++ {
		if snap := s[g]; snap != nil && ok(snap) {
			return true
		}
	}
	return false
}

// dnsExpect is the DNS answer a snapshot gives for key in a dataset:
// whether it is listed, and the TTL a listed answer carries.
func dnsExpect(snap *serve.Snapshot, key ip6.Addr, dataset string) (bool, uint32) {
	ans := snap.Lookup(key)
	switch dataset {
	case "live":
		return ans.Live, serve.ServeTTL
	case "icmp":
		return ans.Protos.Has(netmodel.ICMP), serve.ServeTTL
	case "alias":
		return ans.Aliased, uint32(ans.AliasPrefix.Bits())
	default:
		return ans.Injected, serve.ServeTTL
	}
}

// Outcome codes of one DNS query.
const (
	dnsPending int32 = iota
	dnsMiss
	dnsHit
	dnsMalformed
)

// dnsClient is the open-loop UDP load generator. Query seq is due at
// due[seq] after t0; it is sent at that time or later, never earlier,
// with transaction ID uint16(seq), and its reply is matched back by that
// ID and the echoed question, so a lost query cannot shift the pairing.
type dnsClient struct {
	conn *net.UDPConn
	h    *serve.Handle
	t0   time.Time
	keys []ip6.Addr
	due  []time.Duration

	slots [1 << 16]atomic.Int64 // txid → seq+1 of the last query sent with it

	// Written by the sender.
	sendGen []uint64
	late    time.Duration
	// Written by the receiver.
	code    []int32
	ttl     []uint32
	lat     []time.Duration
	recvGen []uint64
}

func (c *dnsClient) name(seq int) string {
	return c.keys[seq].FullHex() + "." + datasets[seq%len(datasets)] + "." + serveZone
}

// send runs the schedule for queries [lo, hi).
func (c *dnsClient) send(lo, hi int) error {
	pkt := make([]byte, 0, 128)
	for seq := lo; seq < hi; {
		now := time.Since(c.t0)
		if wait := c.due[seq] - now; wait > 0 {
			time.Sleep(wait)
			continue
		}
		for ; seq < hi && c.due[seq] <= time.Since(c.t0); seq++ {
			pkt = pkt[:12]
			binary.BigEndian.PutUint16(pkt[0:], uint16(seq))
			binary.BigEndian.PutUint16(pkt[2:], 0x0100) // RD
			binary.BigEndian.PutUint16(pkt[4:], 1)      // one question
			clear(pkt[6:12])
			var err error
			if pkt, err = dnswire.AppendName(pkt, c.name(seq)); err != nil {
				return err
			}
			pkt = binary.BigEndian.AppendUint16(pkt, uint16(dnswire.TypeA))
			pkt = binary.BigEndian.AppendUint16(pkt, uint16(dnswire.ClassIN))
			c.slots[uint16(seq)].Store(int64(seq) + 1)
			c.sendGen[seq] = c.h.Current().Generation
			if late := time.Since(c.t0) - c.due[seq]; late > c.late {
				c.late = late
			}
			if _, err := c.conn.Write(pkt); err != nil {
				return err
			}
		}
	}
	return nil
}

// receive matches replies to queries until the connection is closed.
func (c *dnsClient) receive() error {
	buf := make([]byte, 4096)
	var msg dnswire.Message
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		at := time.Since(c.t0)
		gen := c.h.Current().Generation
		if n < 2 {
			continue
		}
		seq := int(c.slots[binary.BigEndian.Uint16(buf)].Load()) - 1
		if seq < 0 || c.code[seq] != dnsPending {
			continue
		}
		code, ttl := dnsMalformed, uint32(0)
		if err := dnswire.DecodeInto(buf[:n], &msg); err == nil {
			if len(msg.Questions) != 1 || msg.Questions[0].Name != c.name(seq) {
				continue // a reply to an older query that reused this ID
			}
			code, ttl = classify(&msg)
		}
		c.code[seq], c.ttl[seq], c.lat[seq], c.recvGen[seq] = code, ttl, at-c.due[seq], gen
	}
}

// classify reads a reply as listed (NOERROR with one A 127.0.0.2 record)
// or not listed (NXDOMAIN, no records); anything else is malformed.
func classify(m *dnswire.Message) (int32, uint32) {
	if !m.Header.Response {
		return dnsMalformed, 0
	}
	switch {
	case m.Header.RCode == dnswire.RCodeNXDomain && len(m.Answers) == 0:
		return dnsMiss, 0
	case m.Header.RCode == dnswire.RCodeNoError && len(m.Answers) == 1 &&
		m.Answers[0].Type == dnswire.TypeA && m.Answers[0].A == (ip6.IPv4{127, 0, 0, 2}):
		return dnsHit, m.Answers[0].TTL
	}
	return dnsMalformed, 0
}

// httpResult is one /v1/query exchange.
type httpResult struct {
	lat    time.Duration
	g0, g1 uint64
	ans    serve.HTTPAnswer
	err    error
}

// httpLoad runs the open-loop HTTP schedule over one keep-alive
// connection: request j is due at j/httpRate after t0 and waits for the
// previous one, so a slow answer delays the ones behind it and that
// delay is part of their latency.
func httpLoad(base string, h *serve.Handle, t0 time.Time, keys []ip6.Addr) []httpResult {
	client := &http.Client{
		Timeout:   lostAfter,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	defer client.CloseIdleConnections()
	out := make([]httpResult, len(keys))
	for j, key := range keys {
		due := time.Duration(j) * time.Second / httpRate
		if wait := due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		r := &out[j]
		r.g0 = h.Current().Generation
		r.err = func() error {
			resp, err := client.Get(base + "/v1/query?addr=" + url.QueryEscape(key.String()))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
			}
			return json.Unmarshal(body, &r.ans)
		}()
		r.lat = time.Since(t0) - due
		r.g1 = h.Current().Generation
	}
	return out
}

// httpMatches reports whether an HTTP answer is what snap answers.
func httpMatches(snap *serve.Snapshot, key ip6.Addr, got serve.HTTPAnswer) bool {
	ans := snap.Lookup(key)
	want := serve.HTTPAnswer{
		Addr: key.String(), Day: ans.Day, Generation: ans.Generation,
		Live: ans.Live, Aliased: ans.Aliased, GFWInjected: ans.Injected,
	}
	if ans.Aliased {
		want.AliasPrefix = ans.AliasPrefix.String()
	}
	if got.Addr != want.Addr || got.Day != want.Day || got.Generation != want.Generation ||
		got.Live != want.Live || got.Aliased != want.Aliased || got.AliasPrefix != want.AliasPrefix ||
		got.GFWInjected != want.GFWInjected {
		return false
	}
	n := 0
	for p, label := range protoLabels {
		if ans.Protos.Has(p) {
			n++
			if !got.Protocols[label] {
				return false
			}
		}
	}
	return len(got.Protocols) == n
}

func runServe(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	d, err := setUp(o, tr, serveScale, p.seed, func(int) core.Config {
		cfg := core.DefaultConfig(p.seed)
		cfg.ServeSnapshots = true
		return cfg
	}, func(d *deployment) error {
		// Pre-run until a snapshot is published.
		for _, day := range d.w.ScanDays {
			if _, err := d.svc.RunScan(ctx, day); err != nil {
				return err
			}
			if d.svc.QueryHandle().Current() != nil {
				return nil
			}
		}
		return errors.New("no snapshot published")
	})
	if err != nil {
		return nil, err
	}
	defer d.svc.Close()
	h := d.svc.QueryHandle()
	// Only the scan goroutine adds to snaps once the load starts; the
	// checks read it after every goroutine has finished.
	snaps := snapshotLog{}
	snaps.add(h.Current())

	// Inputs, all from the seed: the query keys and the scan days.
	step := time.Duration(p.seconds) * time.Second / time.Duration(len(dnsRates))
	var live []ip6.Addr
	h.Current().Any.Walk(func(a ip6.Addr) bool { live = append(live, a); return true })
	var prefixes []ip6.Prefix
	for _, as := range d.w.Net.AS.All() {
		prefixes = append(prefixes, as.Announced...)
	}
	r := rng.NewStream(p.seed, "perfbench-serve")
	udpc := &dnsClient{h: h}
	var stepStart []int
	for s, rate := range dnsRates {
		stepStart = append(stepStart, len(udpc.due))
		n := int(step.Seconds() * float64(rate))
		for j := 0; j < n; j++ {
			udpc.due = append(udpc.due, time.Duration(s)*step+time.Duration(j)*time.Second/time.Duration(rate))
		}
	}
	stepStart = append(stepStart, len(udpc.due))
	total := len(udpc.due)
	udpc.keys = queryKeys(r.Derive(1), total, live, prefixes)
	udpc.sendGen, udpc.code, udpc.ttl = make([]uint64, total), make([]int32, total), make([]uint32, total)
	udpc.lat, udpc.recvGen = make([]time.Duration, total), make([]uint64, total)
	httpKeys := queryKeys(r.Derive(2), p.seconds*httpRate, live, prefixes)
	nScans := int(time.Duration(p.seconds) * time.Second / scanEvery)
	stride := max((len(d.w.ScanDays)-1)/max(nScans, 1), 1)
	nScans = min(nScans, (len(d.w.ScanDays)-1)/stride)

	// Servers: two ServeUDP loops, one per core as hitlist6serve runs
	// them, and the HTTP API, all over the service's own handle.
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		udp.Close()
		return nil, err
	}
	responder := serve.NewDNSResponder(h, serveZone)
	srv := &http.Server{Handler: serve.NewHTTPHandler(h)}
	var servers sync.WaitGroup
	servers.Add(3)
	for i := 0; i < 2; i++ {
		go func() {
			defer servers.Done()
			o.op(serve.ServeUDP(udp, responder), "ServeUDP")
		}()
	}
	go func() {
		defer servers.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			o.op(err, "http.Server")
		}
	}()
	defer func() {
		udp.Close()
		srv.Close()
		servers.Wait()
	}()
	if udpc.conn, err = net.DialUDP("udp", nil, udp.LocalAddr().(*net.UDPAddr)); err != nil {
		return nil, err
	}
	// A deep client receive queue, so the measuring side does not drop
	// replies the server did send.
	if err := udpc.conn.SetReadBuffer(4 << 20); err != nil {
		udpc.conn.Close()
		return nil, err
	}

	// The measured phase: scans, DNS ladder and HTTP load on one clock.
	log := newScanLog(tr, d, "core.run_scan")
	var wg sync.WaitGroup
	var scanErr, sendErr, recvErr error
	var httpOut []httpResult
	udpc.t0 = time.Now().Add(10 * time.Millisecond)
	wg.Add(4)
	go func() {
		defer wg.Done()
		for k := 0; k < nScans; k++ {
			if wait := time.Duration(k)*scanEvery - time.Since(udpc.t0); wait > 0 {
				time.Sleep(wait)
			}
			if _, scanErr = log.scan(ctx, k, d.w.ScanDays[(k+1)*stride]); scanErr != nil {
				return
			}
			snaps.add(h.Current())
		}
	}()
	go func() {
		defer wg.Done()
		recvErr = udpc.receive()
	}()
	go func() {
		defer wg.Done()
		for s := range dnsRates {
			begun := time.Now()
			if sendErr = udpc.send(stepStart[s], stepStart[s+1]); sendErr != nil {
				break
			}
			tr.interval("serve.dns_step", s, begun, time.Now())
		}
		// Replies later than lostAfter count as lost.
		time.Sleep(lostAfter)
		udpc.conn.Close()
	}()
	go func() {
		defer wg.Done()
		httpOut = httpLoad("http://"+ln.Addr().String(), h, udpc.t0, httpKeys)
	}()
	wg.Wait()
	o.m["max_rss_mb"] = maxRSSMB()
	if !o.op(scanErr, "RunScan") || !o.op(sendErr, "sending queries") || !o.op(recvErr, "receiving replies") {
		return o, nil
	}
	o.attempted += len(log.lat)
	log.layerMetrics(o)
	var wall float64
	for _, ms := range log.lat {
		wall += ms / 1e3
	}
	o.m["wall_s"] = wall

	// DNS: per-rate latency with lost, late (past lostAfter) and wrong
	// answers read as lostAfter; every answer must be what a snapshot
	// live between send and receive answers.
	var lost, wrong int
	maxQPS := 0
	for s, rate := range dnsRates {
		var lat []float64
		stepLost := 0
		for seq := stepStart[s]; seq < stepStart[s+1]; seq++ {
			ms := float64(lostAfter) / 1e6
			switch udpc.code[seq] {
			case dnsPending:
				stepLost++
			case dnsMalformed:
				wrong++
			default:
				key, ds := udpc.keys[seq], datasets[seq%len(datasets)]
				ok := snaps.anyLive(udpc.sendGen[seq], udpc.recvGen[seq], func(snap *serve.Snapshot) bool {
					hit, ttl := dnsExpect(snap, key, ds)
					return hit == (udpc.code[seq] == dnsHit) && (!hit || ttl == udpc.ttl[seq])
				})
				switch {
				case !ok:
					wrong++
				case udpc.lat[seq] >= lostAfter:
					stepLost++
				default:
					ms = float64(udpc.lat[seq]) / 1e6
				}
			}
			lat = append(lat, ms)
		}
		lost += stepLost
		p99 := quantile(lat, 0.99)
		o.m[fmt.Sprintf("serve.dns_p99_ms.r%dk", rate/1000)] = p99
		if p99 <= dnsLimitMs {
			maxQPS = rate
		}
		if rate == refRate {
			o.m["dns_p50_ms"] = quantile(lat, 0.5)
			o.m["dns_p99_ms"] = p99
			o.m["dns_loss"] = float64(stepLost) / float64(len(lat))
		}
	}
	o.attempted += total
	o.failed += wrong
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong DNS answers\n", wrong)
	}
	o.m["dns_max_qps"] = float64(maxQPS)
	o.m["serve.dns_lost"] = float64(lost)
	o.m["serve.dns_wrong"] = float64(wrong)
	o.m["serve.sender_late_ms"] = float64(udpc.late) / 1e6

	// HTTP: errors and wrong answers fail; latency as for DNS.
	var httpLat []float64
	httpErrs := 0
	for j, res := range httpOut {
		ms := float64(res.lat) / 1e6
		if res.err == nil && !snaps.anyLive(res.g0, res.g1, func(snap *serve.Snapshot) bool {
			return snap.Generation == res.ans.Generation && httpMatches(snap, httpKeys[j], res.ans)
		}) {
			res.err = fmt.Errorf("answer %+v matches no live snapshot", res.ans)
		}
		if !o.op(res.err, "HTTP /v1/query") {
			httpErrs++
			ms = float64(lostAfter) / 1e6
		}
		httpLat = append(httpLat, ms)
	}
	o.m["http_p99_ms"] = quantile(httpLat, 0.99)
	o.m["serve.http_errors"] = float64(httpErrs)
	return o, nil
}
