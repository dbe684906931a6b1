package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"

	"hitlist6/internal/core"
	"hitlist6/internal/netmodel"
)

// digests.json pins, per workload, the SHA-256 of the record rows a run
// at defaultSeed produces.
//
//go:embed digests.json
var digestsJSON []byte

// recordRows renders records as the hitlist6 command's CSV (header and
// one row per scan). withTGA appends the TGA round's counters and the
// probe count, which the closed loop adds.
func recordRows(recs []*core.ScanRecord, withTGA bool) []byte {
	var buf bytes.Buffer
	out := csv.NewWriter(&buf)
	header := []string{"date", "scanned", "new_input", "total_raw", "total_clean", "injected_dns",
		"first_resp", "resp_again", "unresp", "aliased_prefixes", "evicted"}
	for _, p := range netmodel.Protocols {
		header = append(header, "raw_"+p.String(), "clean_"+p.String())
	}
	if withTGA {
		header = append(header, "tga_candidates", "tga_responsive", "probes_sent")
	}
	out.Write(header)
	for _, rec := range recs {
		row := []string{
			netmodel.DateString(rec.Day),
			strconv.Itoa(rec.ScannedTargets),
			strconv.Itoa(rec.NewInput),
			strconv.Itoa(rec.TotalRaw),
			strconv.Itoa(rec.TotalClean),
			strconv.Itoa(rec.InjectedDNS),
			strconv.Itoa(rec.FirstResp),
			strconv.Itoa(rec.RespAgain),
			strconv.Itoa(rec.Unresp),
			strconv.Itoa(rec.AliasedPrefixes),
			strconv.Itoa(rec.Evicted),
		}
		for _, p := range netmodel.Protocols {
			row = append(row, strconv.Itoa(rec.ResponsiveRaw[p]), strconv.Itoa(rec.ResponsiveClean[p]))
		}
		if withTGA {
			row = append(row, strconv.Itoa(rec.TGACandidates), strconv.Itoa(rec.TGAResponsive),
				strconv.FormatUint(rec.ProbesSent, 10))
		}
		out.Write(row)
	}
	out.Flush()
	return buf.Bytes()
}

// checkDigest compares the rows' digest with the committed one when the
// run uses the seed the digests were pinned at.
func checkDigest(o *outcome, workload string, seed uint64, rows []byte) {
	sum := sha256.Sum256(rows)
	got := hex.EncodeToString(sum[:])
	fmt.Printf("records digest (%s, seed %d): %s\n", workload, seed, got)
	if seed != defaultSeed {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		o.check(false, "digests.json: %v", err)
		return
	}
	o.check(got == want[workload], "%s records digest %s, committed %q", workload, got, want[workload])
}

// checkFunnel checks the funnel identity: every input address ends in
// exactly one bucket, and the per-scan records add up to the cumulative
// funnel. exactActive adds that the active set is the last scan set,
// which holds when no TGA round ingests after the scan.
func checkFunnel(o *outcome, svc *core.Service, exactActive bool) {
	f := svc.Funnel()
	recs := svc.Records()
	if !o.check(len(recs) > 0, "no scan records") {
		return
	}
	o.check(f.Input == f.Blocked+f.GFWFiltered+f.AliasedInput+f.Evicted+f.ActiveScan,
		"funnel identity: %+v", f)
	var sum core.Funnel
	ok := true
	for _, r := range recs {
		sum.Input += r.NewInput
		sum.Blocked += r.BlockedInput
		sum.GFWFiltered += r.GFWFilteredInput
		sum.AliasedInput += r.AliasedInput
		sum.Evicted += r.Evicted
		ok = ok && r.TotalClean <= r.TotalRaw
		for p := range r.ResponsiveRaw {
			ok = ok && r.ResponsiveClean[p] <= r.ResponsiveRaw[p]
		}
	}
	last := recs[len(recs)-1]
	sum.ActiveScan, sum.Responsive = f.ActiveScan, last.TotalClean
	if exactActive {
		sum.ActiveScan = last.ScannedTargets
	}
	o.check(sum == f, "records sum to %+v, funnel is %+v", sum, f)
	o.check(ok, "a record has more clean than raw responders")
}

// sameRecords compares records by their JSON encoding, which holds every
// deterministic field (wall-clock shard timings are excluded from it).
func sameRecords(a, b []*core.ScanRecord) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// dirBytes sums the sizes of the regular files under every directory
// matching the glob.
func dirBytes(glob string) (int64, error) {
	dirs, err := filepath.Glob(glob)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.Type().IsRegular() {
				info, err := e.Info()
				if err != nil {
					return err
				}
				n += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}
