package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The frame, the one unit every binary format here is built from (all
// integers little-endian):
//
//	frame   tag u8 (≥ 1) | payloadLen u32 | crc32(payload) u32 | payload
//	footer  tag 0        | frameCount u32 | crc32(concatenated frame CRCs) u32
//
// A sealed container is a caller-owned header, frames, and the footer that
// commits their number and checksums; it is written whole (WriteAtomic), so
// one that ends early is ErrTruncated and everything else wrong with it is
// ErrBadFormat. An open tail is frames appended one at a time (Appender)
// with no footer: a short or checksum-failing *last* frame is an append
// that never finished and is dropped, while a bad frame with bytes after it
// can only be damage to committed data.

const frameHeaderLen = 1 + 4 + 4

// Frame is one decoded frame; Payload aliases the image it was read from.
type Frame struct {
	Tag     uint8
	Payload []byte
}

func badf(format string, args ...any) error {
	return fmt.Errorf("wal: "+format+": %w", append(args, ErrBadFormat)...)
}

// AppendFrame appends one frame to dst.
func AppendFrame(dst []byte, tag uint8, payload []byte) []byte {
	at := len(dst)
	dst = append(BeginFrame(dst, tag), payload...)
	EndFrame(dst, at)
	return dst
}

// BeginFrame appends the header of a frame whose payload the caller appends
// to dst next, length and checksum still blank. EndFrame, given the length
// dst had before BeginFrame, fills them in from what was appended since: a
// frame built in place, its payload never staged in a buffer of its own.
func BeginFrame(dst []byte, tag uint8) []byte {
	return append(dst, tag, 0, 0, 0, 0, 0, 0, 0, 0)
}

// EndFrame completes the frame begun at offset at of dst, which ends dst.
func EndFrame(dst []byte, at int) {
	payload := dst[at+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[at+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+5:], crc32.ChecksumIEEE(payload))
}

// Seal closes a container under construction — a header of headerLen bytes
// followed by AppendFrame output — by appending the footer.
func Seal(data []byte, headerLen int) []byte {
	var crcs []byte
	count := uint32(0)
	for off := headerLen; off < len(data); {
		crcs = append(crcs, data[off+5:off+frameHeaderLen]...)
		off += frameHeaderLen + int(binary.LittleEndian.Uint32(data[off+1:]))
		count++
	}
	data = append(data, 0)
	data = binary.LittleEndian.AppendUint32(data, count)
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(crcs))
}

// Unseal validates a sealed container image past its header — every frame
// checksum, tags within 1..maxTag, the footer's count and digest — and
// returns the frames plus whatever follows the footer. A closed container
// ends there; its reader rejects a non-empty rest.
func Unseal(data []byte, headerLen int, maxTag uint8) (frames []Frame, rest []byte, err error) {
	var crcs []byte
	for off := headerLen; ; {
		if off >= len(data) {
			return nil, nil, fmt.Errorf("%w: missing footer", ErrTruncated)
		}
		tag := data[off]
		if tag > maxTag {
			return nil, nil, badf("unknown tag %d", tag)
		}
		if len(data)-off < frameHeaderLen {
			return nil, nil, fmt.Errorf("%w: short frame header", ErrTruncated)
		}
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		sum := binary.LittleEndian.Uint32(data[off+5:])
		off += frameHeaderLen
		if tag == 0 {
			if n != len(frames) {
				return nil, nil, badf("footer counts %d frames, read %d", n, len(frames))
			}
			if sum != crc32.ChecksumIEEE(crcs) {
				return nil, nil, badf("footer digest mismatch")
			}
			return frames, data[off:], nil
		}
		if len(data)-off < n {
			return nil, nil, fmt.Errorf("%w: frame %d body cut short", ErrTruncated, tag)
		}
		if crc32.ChecksumIEEE(data[off:off+n]) != sum {
			return nil, nil, badf("frame %d checksum mismatch", tag)
		}
		frames = append(frames, Frame{tag, data[off : off+n]})
		crcs = binary.LittleEndian.AppendUint32(crcs, sum)
		off += n
	}
}

// Frames reads an open tail in which every frame carries tag. torn is the
// length of an unfinished last frame, which is not among the frames
// returned; damage anywhere before it is ErrBadFormat.
func Frames(data []byte, tag uint8) (frames []Frame, torn int, err error) {
	for len(data) > 0 {
		if len(data) < frameHeaderLen {
			return frames, len(data), nil
		}
		if data[0] != tag {
			return nil, 0, badf("frame %d has tag %d", len(frames), data[0])
		}
		size := frameHeaderLen + int(binary.LittleEndian.Uint32(data[1:]))
		if len(data) < size {
			return frames, len(data), nil
		}
		payload := data[frameHeaderLen:size]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[5:]) {
			if size == len(data) {
				return frames, size, nil
			}
			return nil, 0, badf("frame %d checksum mismatch", len(frames))
		}
		frames = append(frames, Frame{tag, payload})
		data = data[size:]
	}
	return frames, 0, nil
}
