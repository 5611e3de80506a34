// stgcc -- length-prefixed framing for the stgd wire protocol
// (docs/SERVICE.md).
//
// Every message on a connection is one frame: a 4-byte big-endian unsigned
// payload length followed by that many bytes of UTF-8 JSON.  Framing is
// direction-symmetric and carries no flags or versioning -- protocol
// versioning lives inside the JSON (`ping` echoes the protocol number).
//
// Two codecs share the format:
//   * the buffer codec (encode_frame / decode_frame) works on in-memory
//     byte strings -- the unit tests exercise truncation, oversize and
//     garbage handling without sockets;
//   * the fd codec (write_frame / read_frame) moves frames over a socket,
//     restarting on EINTR and handling short reads/writes; read_frame can
//     abandon a partial frame when an abort fd (a server's drain pipe)
//     becomes readable.
//
// A reader enforces a maximum payload size (kDefaultMaxFrame unless the
// caller says otherwise): an oversized header is a protocol error and the
// connection is unrecoverable, because the stream offset of the next frame
// is unknowable.  Truncation (EOF mid-frame) is reported distinctly from a
// clean EOF on the frame boundary so servers can log torn connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace stgcc::svc {

/// Frame header size: 4-byte big-endian payload length.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Default maximum payload a reader accepts (64 MiB -- generous for model
/// text and reports, small enough to bound a malicious or corrupt header).
inline constexpr std::uint32_t kDefaultMaxFrame = 64u << 20;

/// Outcome of reading / decoding one frame.
enum class FrameStatus {
    Ok,         ///< payload delivered
    Eof,        ///< clean end of stream on a frame boundary (no bytes read)
    Truncated,  ///< stream ended inside a header or payload
    Oversized,  ///< header declares a payload above the caller's maximum
    IoError,    ///< read/write failed (errno-level)
};

/// Human-readable name of a status (diagnostics and tests).
[[nodiscard]] const char* frame_status_name(FrameStatus s) noexcept;

/// Serialise `payload` into header + bytes.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Decode one frame from the front of `buffer`.
///   Ok        -> `payload` is set, `consumed` is the total frame size;
///   Eof       -> buffer is empty;
///   Truncated -> buffer holds a partial header or partial payload
///                (a stream reader would wait for more bytes);
///   Oversized -> header length exceeds `max_payload`; `consumed` is 0 and
///                the buffer must be treated as poisoned.
FrameStatus decode_frame(std::string_view buffer, std::string& payload,
                         std::size_t& consumed,
                         std::uint32_t max_payload = kDefaultMaxFrame);

/// Write one frame to `fd`, handling short writes and EINTR.  Returns false
/// on any write failure (including EPIPE on a closed peer).
bool write_frame(int fd, std::string_view payload);

/// Read one frame from `fd` (blocking), handling short reads and EINTR.
/// With `abort_fd` >= 0 the wait for each chunk also watches `abort_fd`:
/// when it becomes readable while `fd` has nothing pending, the frame is
/// abandoned -- Eof if no byte of it was read, else Truncated.  Bytes
/// already pending on `fd` are still read, so a frame that arrived whole
/// is delivered whole.
FrameStatus read_frame(int fd, std::string& payload,
                       std::uint32_t max_payload = kDefaultMaxFrame,
                       int abort_fd = -1);

}  // namespace stgcc::svc
