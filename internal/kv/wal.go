package kv

// The write-ahead log. One framed record per Apply batch:
//
//	[4B BE payload length][4B BE CRC32(payload)][payload]
//
// Replay reads records until EOF or the first frame that fails its
// length or checksum — a torn tail from a crash — and truncates the
// file there, so the log always restarts from a whole-batch boundary.

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
)

const walFrameHeader = 8

// maxWALRecord rejects absurd frame lengths before allocating; honest
// records are bounded by the memtable threshold plus one batch.
const maxWALRecord = 1 << 30

type wal struct {
	f    *os.File
	path string
	size int64
}

// openWAL opens (creating if absent) the log at path and replays it,
// returning the payload of every intact record in append order. The
// file is truncated after the last intact record.
func openWAL(path string) (*wal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	var payloads [][]byte
	var good int64
	hdr := make([]byte, walFrameHeader)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			break // EOF or torn header
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxWALRecord {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			break // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record
		}
		payloads = append(payloads, payload)
		good += walFrameHeader + int64(n)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &wal{f: f, path: path, size: good}, payloads, nil
}

// append writes one record, fsyncing when sync is set. The frame is the
// payload behind walFrameHeader bytes that append fills in, so the
// payload is written where it was encoded.
func (w *wal) append(frame []byte, sync bool) error {
	payload := frame[walFrameHeader:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.size += int64(len(frame))
	if sync {
		return w.f.Sync()
	}
	return nil
}

// reset empties the log after a memtable flush: every record it held is
// now durable in a committed segment.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.size = 0
	return w.f.Sync()
}

func (w *wal) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
