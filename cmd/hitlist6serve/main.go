// Command hitlist6serve is the hitlist-as-a-service front end: it serves
// liveness/alias/GFW point queries over DNS (rbldnsd-style datasets
// under one zone) and HTTP/JSON, either from a static .hl6 hitlist or
// attached to a live timeline run that keeps publishing fresh snapshots
// while queries are answered.
//
//	hitlist6serve -hitlist big.hl6 -dns :5353 -http :8080
//	    serve a static hitlist: the "live" dataset answers membership,
//	    the other datasets are empty (a bare hitlist has no per-protocol
//	    or alias/GFW dimensions).
//
//	hitlist6serve -timeline -dns :5353 -http :8080
//	    generate a synthetic world and run the scan pipeline with
//	    Config.ServeSnapshots: each scan finalization atomically swaps a
//	    fresh snapshot under the running servers — the serve-while-scan
//	    demonstration.
//
//	hitlist6serve query -mode dns -server 127.0.0.1:5353 -in addrs.txt
//	    client mode: resolve each address against a running server and
//	    print "addr,live" CSV rows — the smoke test diffs this against
//	    hitlist6 hl6 check's offline truth.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"hitlist6/internal/core"
	"hitlist6/internal/dnswire"
	"hitlist6/internal/hlfile"
	"hitlist6/internal/ip6"
	"hitlist6/internal/netmodel"
	"hitlist6/internal/serve"
	"hitlist6/internal/worldgen"
	"hitlist6/internal/yarrp"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "query" {
		queryMain(os.Args[2:])
		return
	}
	var (
		hitlist  = flag.String("hitlist", "", "serve a static .hl6 hitlist")
		timeline = flag.Bool("timeline", false, "serve a live timeline run (synthetic world)")
		dnsAddr  = flag.String("dns", ":5353", "UDP listen address for DNS queries ('' disables)")
		httpAddr = flag.String("http", ":8080", "listen address for the HTTP/JSON API ('' disables)")
		zone     = flag.String("zone", "hitlist6.serve", "DNS zone the responder is authoritative for")
		day      = flag.Int("day", 0, "snapshot day stamp for -hitlist mode")
		scale    = flag.Float64("scale", 1.0/2000, "world scale for -timeline mode")
		seed     = flag.Uint64("seed", 42, "world seed for -timeline mode")
		interval = flag.Duration("interval", 2*time.Second, "pause between -timeline scans")
	)
	flag.Parse()
	if (*hitlist == "") == !*timeline {
		fmt.Fprintln(os.Stderr, "hitlist6serve needs exactly one of -hitlist or -timeline")
		os.Exit(2)
	}

	h := serve.NewHandle()
	metrics := serve.NewMetrics()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var closers []func()
	if *dnsAddr != "" {
		conn, err := net.ListenPacket("udp", *dnsAddr)
		if err != nil {
			fatal(err)
		}
		responder := serve.NewDNSResponder(h, *zone)
		responder.SetMetrics(metrics)
		// One receive loop per core: the responder is stateless and the
		// handle lock-free, so loops scale without coordination.
		for i := 0; i < runtime.GOMAXPROCS(0); i++ {
			go func() {
				if err := serve.ServeUDP(conn, responder); err != nil {
					fmt.Fprintf(os.Stderr, "dns: %v\n", err)
				}
			}()
		}
		closers = append(closers, func() { conn.Close() })
		fmt.Fprintf(os.Stderr, "hitlist6serve: DNS on %s zone %s\n", conn.LocalAddr(), responder.Zone())
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		srv := newHTTPServer(h, metrics)
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "http: %v\n", err)
			}
		}()
		closers = append(closers, func() { srv.Close() })
		fmt.Fprintf(os.Stderr, "hitlist6serve: HTTP on %s\n", ln.Addr())
	}

	if *hitlist != "" {
		r, err := hlfile.Open(*hitlist)
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		set, err := r.SortedSet()
		if err != nil {
			fatal(err)
		}
		var perProto [netmodel.NumProtocols]*ip6.SortedShardSet
		h.Publish(serve.NewSnapshot(*day, set, perProto, nil, nil))
		fmt.Fprintf(os.Stderr, "hitlist6serve: serving %d addresses from %s\n", set.Len(), *hitlist)
		<-stop
	} else {
		runTimeline(h, *scale, *seed, *interval, stop)
	}
	for _, c := range closers {
		c()
	}
}

// HTTP server timeouts. Every endpoint answers one small JSON or text
// document from an in-memory snapshot, so a well-behaved client needs
// milliseconds per request; the bounds only cap how long a slow or
// stalled client (a half-sent header, an unread response, an idle
// keep-alive) can pin a connection.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpReadTimeout       = 10 * time.Second
	httpWriteTimeout      = 10 * time.Second
	httpIdleTimeout       = 60 * time.Second
)

// newHTTPServer builds the HTTP/JSON API server over h, with every
// connection phase bounded by the timeouts above.
func newHTTPServer(h *serve.Handle, m *serve.Metrics) *http.Server {
	return &http.Server{
		Handler:           serve.NewHTTPHandlerWithMetrics(h, m),
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

// runTimeline drives the scan pipeline with snapshot publication on,
// sleeping between scans so the serve-while-scan behaviour is
// observable; it returns when the schedule ends or a signal arrives.
func runTimeline(h *serve.Handle, scale float64, seed uint64, interval time.Duration, stop <-chan os.Signal) {
	wp := worldgen.TimelineParams(seed)
	wp.Scale = scale
	w, err := worldgen.Generate(wp)
	if err != nil {
		fatal(err)
	}
	feeds := w.BuildFeeds(yarrp.New(w.Net, yarrp.Config{Seed: seed}))
	cfg := core.DefaultConfig(seed)
	cfg.ServeSnapshots = true
	svc := core.NewService(cfg, w.Net, feeds, w.Blocklist)
	defer svc.Close()

	// The service publishes to its own handle; mirror every publication
	// into the servers' handle (still one atomic swap per snapshot).
	ctx := context.Background()
	for _, d := range w.ScanDays {
		rec, err := svc.RunScan(ctx, d)
		if err != nil {
			fatal(err)
		}
		if snap := svc.QueryHandle().Current(); snap != nil {
			h.Publish(snap)
		}
		fmt.Fprintf(os.Stderr, "hitlist6serve: scan day %d: %d live, %d aliased prefixes\n",
			rec.Day, rec.TotalClean, rec.AliasedPrefixes)
		select {
		case <-stop:
			return
		case <-time.After(interval):
		}
	}
	<-stop
}

// queryMain is the client: resolve each input address against a running
// server and print "addr,live" rows, the exact shape `hitlist6 hl6
// check` prints offline. Addresses print in canonical ip6 form so the
// two outputs diff byte for byte.
func queryMain(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		mode    = fs.String("mode", "dns", "dns or http")
		server  = fs.String("server", "127.0.0.1:5353", "server address (host:port)")
		zone    = fs.String("zone", "hitlist6.serve", "DNS zone (dns mode)")
		dataset = fs.String("dataset", "live", "dataset to query (dns mode)")
		in      = fs.String("in", "-", "input file, one address per line ('-' = stdin)")
		timeout = fs.Duration("timeout", 5*time.Second, "per-query timeout")
	)
	fs.Parse(args)

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}

	var lookup func(a ip6.Addr) (bool, error)
	switch *mode {
	case "dns":
		conn, err := net.Dial("udp", *server)
		if err != nil {
			fatal(err)
		}
		defer conn.Close()
		responder := serve.NewDNSResponder(serve.NewHandle(), *zone) // for QueryName only
		var mu sync.Mutex
		txid := uint16(1)
		buf := make([]byte, 4096)
		lookup = func(a ip6.Addr) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			txid++
			wire, err := dnswire.NewQuery(txid, responder.QueryName(a, *dataset), dnswire.TypeA).Encode()
			if err != nil {
				return false, err
			}
			if err := conn.SetDeadline(time.Now().Add(*timeout)); err != nil {
				return false, err
			}
			if _, err := conn.Write(wire); err != nil {
				return false, err
			}
			n, err := conn.Read(buf)
			if err != nil {
				return false, err
			}
			m, err := dnswire.Decode(buf[:n])
			if err != nil {
				return false, err
			}
			if m.Header.ID != txid {
				return false, fmt.Errorf("transaction ID mismatch: %d != %d", m.Header.ID, txid)
			}
			switch m.Header.RCode {
			case dnswire.RCodeNoError:
				return len(m.Answers) > 0, nil
			case dnswire.RCodeNXDomain:
				return false, nil
			}
			return false, fmt.Errorf("query for %v: rcode %v", a, m.Header.RCode)
		}
	case "http":
		client := &http.Client{Timeout: *timeout}
		lookup = func(a ip6.Addr) (bool, error) {
			resp, err := client.Get("http://" + *server + "/v1/query?addr=" + a.String())
			if err != nil {
				return false, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return false, fmt.Errorf("query for %v: HTTP %d", a, resp.StatusCode)
			}
			var ans struct {
				Live bool `json:"live"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
				return false, err
			}
			return ans.Live, nil
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (want dns or http)\n", *mode)
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		a, err := ip6.ParseAddr(line)
		if err != nil {
			fatal(err)
		}
		live, err := lookup(a)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "%s,%v\n", a.String(), live)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
