#include "net/frame.h"

#include "common/coding.h"
#include "common/crc32.h"
#include "common/macros.h"

namespace modelhub {

std::string_view OpcodeToString(uint8_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
      return "ping";
    case Opcode::kListModels:
      return "list_models";
    case Opcode::kGetSnapshot:
      return "get_snapshot";
    case Opcode::kDqlQuery:
      return "dql_query";
    case Opcode::kStats:
      return "stats";
    case Opcode::kShutdown:
      return "shutdown";
    case Opcode::kGetTrace:
      return "get_trace";
    case Opcode::kGetMetrics:
      return "get_metrics";
  }
  return "unknown";
}

namespace {

/// flags bit layout of the trace-context header (see kWireTraceFlag).
constexpr uint8_t kTraceFlagSampled = 0x01;
constexpr uint8_t kTraceFlagDeadlineExpired = 0x02;

std::string EncodeTraceHeader(const FrameTrace& trace) {
  std::string out;
  PutFixed64(&out, trace.trace_hi);
  PutFixed64(&out, trace.trace_lo);
  PutFixed64(&out, trace.span_id);
  uint8_t flags = 0;
  if (trace.sampled) flags |= kTraceFlagSampled;
  if (trace.deadline_expired) flags |= kTraceFlagDeadlineExpired;
  out.push_back(static_cast<char>(flags));
  PutVarint64(&out, trace.deadline_ms);
  return out;
}

Status DecodeTraceHeader(Slice* body, FrameTrace* trace) {
  MH_RETURN_IF_ERROR(GetFixed64(body, &trace->trace_hi));
  MH_RETURN_IF_ERROR(GetFixed64(body, &trace->trace_lo));
  MH_RETURN_IF_ERROR(GetFixed64(body, &trace->span_id));
  if (body->empty()) {
    return Status::Corruption("truncated trace header: missing flags");
  }
  const uint8_t flags = static_cast<uint8_t>((*body)[0]);
  body->RemovePrefix(1);
  trace->sampled = (flags & kTraceFlagSampled) != 0;
  trace->deadline_expired = (flags & kTraceFlagDeadlineExpired) != 0;
  uint64_t deadline_ms = 0;
  MH_RETURN_IF_ERROR(GetVarint64(body, &deadline_ms));
  trace->deadline_ms = static_cast<uint32_t>(
      deadline_ms > UINT32_MAX ? UINT32_MAX : deadline_ms);
  return Status::OK();
}

/// Shared body decoder for DecodeFrame/ReadFrame: splits version/opcode,
/// peels the optional trace header, leaves the payload.
Status ParseFrameBody(Slice body, Frame* frame) {
  // The u32 length prefix and the u32 CRC trailer surround the body.
  frame->wire_bytes = 4 + body.size() + 4;
  uint8_t version = static_cast<uint8_t>(body[0]);
  frame->opcode = static_cast<uint8_t>(body[1]);
  body.RemovePrefix(kFrameHeaderBytes);
  frame->trace.reset();
  if ((version & kWireTraceFlag) != 0) {
    FrameTrace trace;
    MH_RETURN_IF_ERROR(DecodeTraceHeader(&body, &trace));
    frame->trace = trace;
    version &= static_cast<uint8_t>(~kWireTraceFlag);
  }
  frame->version = version;
  frame->payload = body.ToString();
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(uint8_t opcode, std::string_view payload,
                        const FrameTrace* trace) {
  std::string header;
  uint8_t version = kWireVersion;
  if (trace != nullptr) {
    version |= kWireTraceFlag;
    header = EncodeTraceHeader(*trace);
  }
  std::string out;
  out.reserve(payload.size() + header.size() + kFrameHeaderBytes + 8);
  PutFixed32(&out, static_cast<uint32_t>(payload.size() + header.size() +
                                         kFrameHeaderBytes));
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(opcode));
  out.append(header);
  out.append(payload);
  const uint32_t crc = Crc32(Slice(out.data() + 4, out.size() - 4));
  PutFixed32(&out, crc);
  return out;
}

namespace {

/// Validates a decoded length prefix without touching the body.
Status CheckBodyLength(uint64_t length, uint64_t max_frame_bytes) {
  if (length < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame body impossibly short: " +
                                   std::to_string(length) + " bytes");
  }
  if (length > max_frame_bytes) {
    return Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds cap of " +
        std::to_string(max_frame_bytes));
  }
  return Status::OK();
}

Status CheckBodyCrc(Slice body, uint32_t declared) {
  if (Crc32(body) != declared) {
    return Status::Corruption("frame CRC mismatch (torn or corrupt frame)");
  }
  return Status::OK();
}

}  // namespace

Status DecodeFrame(Slice* input, Frame* frame, uint64_t max_frame_bytes) {
  if (input->size() < 4) {
    return Status::OutOfRange("truncated frame: missing length prefix");
  }
  Slice probe = *input;
  uint32_t length = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&probe, &length));
  MH_RETURN_IF_ERROR(CheckBodyLength(length, max_frame_bytes));
  if (probe.size() < static_cast<uint64_t>(length) + 4) {
    return Status::OutOfRange("truncated frame: body incomplete");
  }
  const Slice body = probe.SubSlice(0, length);
  probe.RemovePrefix(length);
  uint32_t declared = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&probe, &declared));
  MH_RETURN_IF_ERROR(CheckBodyCrc(body, declared));
  MH_RETURN_IF_ERROR(ParseFrameBody(body, frame));
  *input = probe;
  return Status::OK();
}

Status WriteFrame(Socket* sock, uint8_t opcode, std::string_view payload,
                  const Deadline& deadline, const std::atomic<bool>* cancel,
                  const FrameTrace* trace) {
  const std::string wire = EncodeFrame(opcode, payload, trace);
  return sock->WriteFull(wire.data(), wire.size(), deadline, cancel);
}

Status ReadFrame(Socket* sock, Frame* frame, uint64_t max_frame_bytes,
                 const Deadline& deadline, const std::atomic<bool>* cancel,
                 bool* clean_eof) {
  char header[4];
  MH_RETURN_IF_ERROR(
      sock->ReadFull(header, sizeof(header), deadline, cancel, clean_eof));
  Slice header_slice(header, sizeof(header));
  uint32_t length = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&header_slice, &length));
  // Reject before allocating: a torn/hostile header must not drive a
  // multi-gigabyte resize.
  MH_RETURN_IF_ERROR(CheckBodyLength(length, max_frame_bytes));
  std::string body(length + 4, '\0');
  MH_RETURN_IF_ERROR(sock->ReadFull(body.data(), body.size(), deadline,
                                    cancel, nullptr));
  Slice trailer(body.data() + length, 4);
  uint32_t declared = 0;
  MH_RETURN_IF_ERROR(GetFixed32(&trailer, &declared));
  MH_RETURN_IF_ERROR(CheckBodyCrc(Slice(body.data(), length), declared));
  return ParseFrameBody(Slice(body.data(), length), frame);
}

TraceContext ContextFromFrame(const Frame& frame) {
  TraceContext ctx;
  if (!frame.trace.has_value()) return ctx;
  const FrameTrace& trace = *frame.trace;
  ctx.trace_hi = trace.trace_hi;
  ctx.trace_lo = trace.trace_lo;
  ctx.parent_span = trace.span_id;
  ctx.sampled = trace.sampled;
  if (trace.deadline_expired) {
    // The sender's budget was already gone: an immediately-past deadline
    // makes every span of this request carry the after_deadline marker.
    ctx.has_deadline = true;
    ctx.deadline = std::chrono::steady_clock::now();
  } else if (trace.deadline_ms > 0) {
    ctx.has_deadline = true;
    ctx.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(trace.deadline_ms);
  }
  return ctx;
}

std::string EncodeResponsePayload(const Status& status,
                                  std::string_view result) {
  std::string out;
  out.push_back(static_cast<char>(status.code()));
  PutLengthPrefixed(&out,
                    Slice(status.message().data(), status.message().size()));
  out.append(result);
  return out;
}

Status DecodeResponsePayload(Slice* payload, Status* remote) {
  if (payload->empty()) {
    return Status::Corruption("empty response payload");
  }
  const uint8_t raw_code = (*payload)[0];
  payload->RemovePrefix(1);
  Slice message;
  MH_RETURN_IF_ERROR(GetLengthPrefixed(payload, &message));
  // Codes are appended-only in StatusCode, so any value past the known
  // range came from a newer/corrupt peer — surface as Internal.
  const auto code = static_cast<StatusCode>(raw_code);
  const StatusCode known = code > StatusCode::kDeadlineExceeded
                               ? StatusCode::kInternal
                               : code;
  *remote = known == StatusCode::kOk
                ? Status::OK()
                : Status(known, message.ToString());
  return Status::OK();
}

std::string EncodeGetSnapshotRequest(const std::string& model,
                                     int64_t sequence, int planes) {
  std::string out;
  PutLengthPrefixed(&out, Slice(model));
  PutVarint64(&out, sequence < 0 ? 0 : static_cast<uint64_t>(sequence) + 1);
  PutVarint64(&out, static_cast<uint64_t>(planes < 0 ? 0 : planes));
  return out;
}

Status DecodeGetSnapshotRequest(Slice payload, std::string* model,
                                int64_t* sequence, int* planes) {
  Slice name;
  MH_RETURN_IF_ERROR(GetLengthPrefixed(&payload, &name));
  uint64_t seq_plus_one = 0;
  uint64_t raw_planes = 0;
  MH_RETURN_IF_ERROR(GetVarint64(&payload, &seq_plus_one));
  MH_RETURN_IF_ERROR(GetVarint64(&payload, &raw_planes));
  if (raw_planes > 3) {
    return Status::InvalidArgument("planes must be 0 (exact) or 1..3, got " +
                                   std::to_string(raw_planes));
  }
  *model = name.ToString();
  *sequence = seq_plus_one == 0 ? -1 : static_cast<int64_t>(seq_plus_one) - 1;
  *planes = static_cast<int>(raw_planes);
  return Status::OK();
}

}  // namespace modelhub
