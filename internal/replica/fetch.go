package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"xtq/internal/wal"
	"xtq/internal/xerr"
)

// Sentinel conditions of the feed protocol, surfaced by feedClient for
// the follower's tail loop to branch on.
var (
	// errGone: the requested segment was compacted away; re-bootstrap
	// from the primary's checkpoint.
	errGone = errors.New("replica: segment compacted on primary")
	// errRewound: the primary's log ends before our position — the
	// primary lost acknowledged-to-us bytes (OS crash under a relaxed
	// fsync policy). The follower holds diverged state.
	errRewound = errors.New("replica: primary log rewound below our position")
	// errNotYet: the segment does not exist on the primary yet.
	errNotYet = errors.New("replica: segment not on primary yet")
)

// chunk is one segment fetch: raw frame bytes plus the log geometry the
// feed headers described at response time.
type chunk struct {
	data    []byte
	from    int64 // offset data starts at
	size    int64 // segment's safe size at response time
	frozen  bool  // segment sealed by rotation: no more bytes will come
	tail    wal.Pos
	behind  int64 // bytes from end of data to tail
	records int64 // primary's appended-record count
}

// feedClient speaks the log service protocol against one primary.
type feedClient struct {
	base string // primary base URL, no trailing slash
	hc   *http.Client
}

func newFeedClient(primary string, hc *http.Client) *feedClient {
	if hc == nil {
		hc = &http.Client{}
	}
	return &feedClient{base: strings.TrimRight(primary, "/"), hc: hc}
}

func (c *feedClient) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(req)
}

// status fetches the primary's log status.
func (c *feedClient) status(ctx context.Context) (Status, error) {
	resp, err := c.get(ctx, "/wal/status")
	if err != nil {
		return Status{}, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return Status{}, fmt.Errorf("replica: primary status: %s", resp.Status)
	}
	var st Status
	if err := decodeJSON(resp.Body, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// checkpoint downloads the primary's newest checkpoint into path
// (written atomically: temp file + rename) and parses it. ok is false
// when the primary has no checkpoint yet.
func (c *feedClient) checkpoint(ctx context.Context, path string) (ck *wal.Checkpoint, ok bool, err error) {
	resp, err := c.get(ctx, "/wal/checkpoint")
	if err != nil {
		return nil, false, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("replica: primary checkpoint: %s", resp.Status)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, false, xerr.Wrap(xerr.IO, err)
	}
	_, cpErr := io.Copy(f, resp.Body)
	if err := f.Sync(); cpErr == nil {
		cpErr = err
	}
	if err := f.Close(); cpErr == nil {
		cpErr = err
	}
	if cpErr != nil {
		os.Remove(tmp)
		return nil, false, xerr.Wrap(xerr.IO, cpErr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, false, xerr.Wrap(xerr.IO, err)
	}
	ck, err = wal.ReadCheckpointFile(path)
	if err != nil {
		return nil, false, err
	}
	return ck, true, nil
}

// segment fetches bytes of segment seq starting at from, long-polling
// up to wait when caught up. A 204 returns an empty chunk with the
// geometry headers still populated.
func (c *feedClient) segment(ctx context.Context, seq uint64, from int64, wait time.Duration, maxBytes int64) (chunk, error) {
	path := fmt.Sprintf("/wal/segments/%d?from=%d&wait=%d&max=%d", seq, from, wait.Milliseconds(), maxBytes)
	resp, err := c.get(ctx, path)
	if err != nil {
		return chunk{}, err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
	case http.StatusGone:
		return chunk{}, errGone
	case http.StatusRequestedRangeNotSatisfiable:
		return chunk{}, errRewound
	case http.StatusNotFound:
		return chunk{}, errNotYet
	default:
		return chunk{}, fmt.Errorf("replica: primary segment %d: %s", seq, resp.Status)
	}
	ch := chunk{
		from:    headerInt(resp, HdrFrom, from),
		size:    headerInt(resp, HdrSize, 0),
		frozen:  resp.Header.Get(HdrSealed) == "true",
		behind:  headerInt(resp, HdrBehind, -1),
		records: headerInt(resp, HdrRecords, -1),
	}
	ch.tail = wal.Pos{
		Seq:    uint64(headerInt(resp, HdrTailSegment, 0)),
		Offset: headerInt(resp, HdrTailOffset, 0),
	}
	if resp.StatusCode == http.StatusOK {
		ch.data, err = io.ReadAll(io.LimitReader(resp.Body, maxMaxChunk+1))
		if err != nil {
			return chunk{}, err
		}
	}
	return ch, nil
}

func headerInt(resp *http.Response, name string, def int64) int64 {
	if v, err := strconv.ParseInt(resp.Header.Get(name), 10, 64); err == nil {
		return v
	}
	return def
}

func decodeJSON(r io.Reader, v any) error {
	b, err := io.ReadAll(io.LimitReader(r, 8<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// drain consumes and closes a response body so the transport can reuse
// the connection.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
