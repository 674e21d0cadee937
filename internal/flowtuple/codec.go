package flowtuple

import (
	"encoding/binary"
)

// RecordSize is the fixed on-disk size of one encoded record in bytes.
const RecordSize = 21

// AppendRecord encodes r and appends it to dst, returning the extended
// slice. Layout (little-endian): SrcIP(4) DstIP(4) SrcPort(2) DstPort(2)
// Protocol(1) TTL(1) TCPFlags(1) IPLen(2) Packets(4).
func AppendRecord(dst []byte, r Record) []byte {
	var buf [RecordSize]byte
	binary.LittleEndian.PutUint32(buf[0:], r.SrcIP)
	binary.LittleEndian.PutUint32(buf[4:], r.DstIP)
	binary.LittleEndian.PutUint16(buf[8:], r.SrcPort)
	binary.LittleEndian.PutUint16(buf[10:], r.DstPort)
	buf[12] = r.Protocol
	buf[13] = r.TTL
	buf[14] = r.TCPFlags
	binary.LittleEndian.PutUint16(buf[15:], r.IPLen)
	binary.LittleEndian.PutUint32(buf[17:], r.Packets)
	return append(dst, buf[:]...)
}

// decodeInto decodes one record from src, which the caller guarantees holds
// at least RecordSize bytes. It is the batch decode kernel: no bounds error
// path, no value copies beyond the field stores themselves.
func decodeInto(dst *Record, src []byte) {
	_ = src[RecordSize-1] // one bounds check for the whole record
	dst.SrcIP = binary.LittleEndian.Uint32(src[0:])
	dst.DstIP = binary.LittleEndian.Uint32(src[4:])
	dst.SrcPort = binary.LittleEndian.Uint16(src[8:])
	dst.DstPort = binary.LittleEndian.Uint16(src[10:])
	dst.Protocol = src[12]
	dst.TTL = src[13]
	dst.TCPFlags = src[14]
	dst.IPLen = binary.LittleEndian.Uint16(src[15:])
	dst.Packets = binary.LittleEndian.Uint32(src[17:])
}
