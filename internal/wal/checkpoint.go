package wal

import (
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Checkpoint file layout:
//
//	magic "CVCK" (u32) | version (u32) | lsn (u64) | crc32(lsn || snapshot) (u32) | snapshot bytes
//
// A checkpoint pairs a session snapshot with the LSN of the last log record
// folded into it: recovery resumes the snapshot and replays records with
// LSN > lsn. The CRC covers the LSN field as well as the snapshot, so a
// damaged checkpoint — including a silently flipped replay floor — is
// detected and recovery falls back to the previous generation instead of
// resuming garbage. A serving tier's park files use the same frame.

// CheckpointMagic identifies a crowdval checkpoint file ("CVCK").
const CheckpointMagic = 0x4356434b

// checkpointHeaderSize is the byte length of the checkpoint header.
const checkpointHeaderSize = 20

// WriteCheckpoint writes a checkpoint covering the log up to lsn.
func WriteCheckpoint(w io.Writer, lsn uint64, snapshot []byte) error {
	var hdr [checkpointHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], CheckpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], lsn)
	binary.LittleEndian.PutUint32(hdr[16:20], checkpointCRC(hdr[8:16], snapshot))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(snapshot)
	return err
}

// ParseCheckpoint parses a checkpoint frame and returns the covered LSN and
// the snapshot bytes, a sub-slice of frame. Structural damage — bad magic or
// version, truncated header, snapshot CRC mismatch — is reported through
// ErrBadWAL.
func ParseCheckpoint(frame []byte) (lsn uint64, snapshot []byte, err error) {
	if len(frame) < checkpointHeaderSize {
		return 0, nil, badWAL("checkpoint header truncated: %d of %d bytes", len(frame), checkpointHeaderSize)
	}
	hdr := frame[:checkpointHeaderSize]
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != CheckpointMagic {
		return 0, nil, badWAL("bad checkpoint magic %#x", got)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return 0, nil, badWAL("unsupported checkpoint version %d", v)
	}
	snapshot = frame[checkpointHeaderSize:]
	if got, want := checkpointCRC(hdr[8:16], snapshot), binary.LittleEndian.Uint32(hdr[16:20]); got != want {
		return 0, nil, badWAL("checkpoint checksum mismatch")
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), snapshot, nil
}

// checkpointCRC checksums the LSN field together with the snapshot bytes.
func checkpointCRC(lsnBytes, snapshot []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(lsnBytes), crc32.IEEETable, snapshot)
}
