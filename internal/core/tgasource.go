package core

// TGA feedback streaming: the round's responder union is a sharded (and
// possibly disk-backed) set, but ingest consumes one globally ordered
// stream — ascending address order, which seq numbers and the APD
// candidate queue depend on. The set's whole-set ascending cursor yields
// exactly that order without materializing anything; cursorSource
// adapts it to scan.TargetSource.

import (
	"io"

	"hitlist6/internal/ip6"
)

// cursorSource is the scan.TargetSource over an ascending cursor —
// byte-identical to scan.SliceSource over the sorted materialization.
type cursorSource struct {
	next ip6.Cursor
	err  error // deferred cursor error, surfaced on the next pull
}

// Next implements scan.TargetSource.
func (s *cursorSource) Next(buf []ip6.Addr) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := 0
	for n < len(buf) {
		a, ok, err := s.next()
		if err != nil {
			// Deliver what was already merged; the error surfaces on the
			// next pull so no address is lost or reordered.
			s.err = err
			if n == 0 {
				return 0, err
			}
			return n, nil
		}
		if !ok {
			break
		}
		buf[n] = a
		n++
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}
