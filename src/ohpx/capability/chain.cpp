#include "ohpx/capability/chain.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/crypto/sweep.hpp"
#include "ohpx/resilience/deadline.hpp"
#include "ohpx/trace/trace.hpp"

namespace ohpx::cap {
namespace {

// Capability transforms (ciphers, compression) are the most expensive
// client-side pipeline stage, so a spent budget stops here before burning
// CPU on bytes that can no longer arrive in time.
void check_deadline(const CallContext& call, const char* where) {
  if (resilience::deadline_expired(call.deadline_ns)) {
    throw DeadlineExceeded(std::string("deadline exceeded before ") + where);
  }
}

}  // namespace

// Where a pass's bytes live.  They start as the payload view, and the
// first step places them in `out`, replacing what it held.  A payload
// that views all of `out` is placed already (the in-place form).
class CapabilityChain::Pass {
 public:
  Pass(BytesView payload, wire::Buffer& out)
      : payload_(payload),
        out_(out),
        placed_(payload.data() == out.data() && payload.size() == out.size()) {
    if (!placed_) out.clear();
  }

  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  /// The bytes so far.
  BytesView bytes() const noexcept { return placed_ ? out_.view() : payload_; }
  bool placed() const noexcept { return placed_; }

  /// The buffer the bytes are (to be) placed in.  The step writing them
  /// calls mark_placed().
  wire::Buffer& work() noexcept { return out_; }
  void mark_placed() noexcept { placed_ = true; }

  /// A buffer holding exactly the bytes, for a capability's own
  /// process()/unprocess(), and where they are left at the end.
  wire::Buffer& buffer() {
    if (!placed_) {
      out_.append(payload_);
      placed_ = true;
    }
    return out_;
  }

 private:
  BytesView payload_;
  wire::Buffer& out_;
  bool placed_;
};

namespace {

// A stream step's kernels for one call, wired into sweep stages: the MAC
// state absorbs the bytes the sweep reads when `mac_reads`, the bytes it
// writes otherwise.
struct StreamKernels {
  StreamKernels(const AuthenticationCapability* auth,
                const EncryptionCapability* enc, const CallContext& call,
                bool mac_reads) {
    if (enc != nullptr) stages.cipher = &cipher.emplace(enc->keystream(call));
    if (auth != nullptr) {
      (mac_reads ? stages.mac_in : stages.mac_out) =
          &mac.emplace(auth->hasher());
    }
  }
  StreamKernels(const StreamKernels&) = delete;
  StreamKernels& operator=(const StreamKernels&) = delete;

  std::optional<crypto::SipHasher> mac;
  std::optional<crypto::StreamCipher> cipher;
  crypto::SweepStages stages;  // points at the two above
};

// A step's span carries its capabilities' kinds, in chain order.
template <typename Step>
void annotate(trace::Span& span, const Step& step) {
  if (step.capability != nullptr) {
    span.annotate(step.capability->kind());
  } else if (step.mac != nullptr && step.cipher != nullptr) {
    span.annotate(step.mac_first ? "authentication,encryption"
                                 : "encryption,authentication");
  } else if (step.mac != nullptr) {
    span.annotate(step.mac->kind());
  } else {
    span.annotate(step.cipher->kind());
  }
}

}  // namespace

CapabilityChain::CapabilityChain(std::vector<CapabilityPtr> capabilities)
    : capabilities_(std::move(capabilities)) {
  plan();
}

void CapabilityChain::add(CapabilityPtr capability) {
  capabilities_.push_back(std::move(capability));
  plan();
}

void CapabilityChain::plan() {
  steps_.clear();
  for (std::size_t i = 0; i < capabilities_.size(); ++i) {
    Capability* capability = capabilities_[i].get();
    Step step;
    step.mac = dynamic_cast<const AuthenticationCapability*>(capability);
    step.cipher = dynamic_cast<const EncryptionCapability*>(capability);
    if (step.mac == nullptr && step.cipher == nullptr) {
      step.capability = capability;
    } else if (i + 1 < capabilities_.size()) {
      // An authentication next to an encryption, either way round, is
      // one sweep.
      const Capability* next = capabilities_[i + 1].get();
      if (step.mac != nullptr) {
        step.cipher = dynamic_cast<const EncryptionCapability*>(next);
        step.mac_first = step.cipher != nullptr;
      } else {
        step.mac = dynamic_cast<const AuthenticationCapability*>(next);
      }
      if (step.mac != nullptr && step.cipher != nullptr) ++i;
    }
    steps_.push_back(step);
  }
}

bool CapabilityChain::applicable(const netsim::Placement& placement) const {
  for (const auto& capability : capabilities_) {
    if (!capability->applicable(placement)) return false;
  }
  return true;
}

void CapabilityChain::process_outbound(BytesView payload, wire::Buffer& out,
                                       const CallContext& call) {
  check_deadline(call, "capability processing");
  for (const auto& capability : capabilities_) {
    capability->admit(call);
  }
  Pass pass(payload, out);
  for (const Step& step : steps_) {
    trace::Span span(trace::SpanKind::capability, "cap.process");
    annotate(span, step);
    if (step.capability != nullptr) {
      step.capability->process(pass.buffer(), call);
    } else {
      seal(step, pass, call);
    }
  }
  pass.buffer();  // places the payload when no step did (an empty chain)
}

void CapabilityChain::process_inbound(BytesView payload, wire::Buffer& out,
                                      const CallContext& call) {
  check_deadline(call, "capability unprocessing");
  Pass pass(payload, out);
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    trace::Span span(trace::SpanKind::capability, "cap.unprocess");
    annotate(span, *it);
    if (it->capability != nullptr) {
      it->capability->unprocess(pass.buffer(), call);
    } else {
      open(*it, pass, call);
    }
  }
  pass.buffer();  // places the payload when no step did (an empty chain)
  for (const auto& capability : capabilities_) {
    capability->admit(call);
  }
}

// A stream step's process(): the payload through one sweep into the work
// buffer, then the tag.  The MAC absorbs what the authentication would
// see run alone — the bytes before the keystream when it comes first in
// the chain, after it when it comes second — and a keystream after the
// authentication masks the tag too.
void CapabilityChain::seal(const Step& step, Pass& pass,
                           const CallContext& call) {
  const BytesView src = pass.bytes();
  const bool in_place = pass.placed();
  const std::size_t n = src.size();
  wire::Buffer& work = pass.work();
  work.resize(n + (step.mac ? crypto::kMacTagSize : 0));
  std::uint8_t* dst = work.data();
  pass.mark_placed();

  StreamKernels kernels(step.mac, step.cipher, call, step.mac_first);
  // In place, the resize above may have moved the bytes.
  crypto::sweep(in_place ? BytesView(dst, n) : src, dst, kernels.stages);
  if (kernels.mac) {
    crypto::MacTag tag = step.mac->seal(*kernels.mac, call);
    if (kernels.cipher && step.mac_first) kernels.cipher->apply(tag);
    std::copy(tag.begin(), tag.end(), dst + n);
  }
}

// A stream step's unprocess(): seal() backwards.  The tag is set aside
// before the work buffer is sized for the body, and checked once the
// sweep has absorbed it, with the errors AuthenticationCapability's own
// unprocess() raises.
void CapabilityChain::open(const Step& step, Pass& pass,
                           const CallContext& call) {
  const BytesView src = pass.bytes();
  const bool in_place = pass.placed();
  const std::size_t tag_size = step.mac ? crypto::kMacTagSize : 0;
  if (step.mac != nullptr) AuthenticationCapability::require_tag(src.size());
  const std::size_t n = src.size() - tag_size;
  crypto::MacTag tag{};
  std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(n), tag_size,
              tag.begin());
  wire::Buffer& work = pass.work();
  work.resize(n);  // in place this shrinks: the bytes stay
  std::uint8_t* dst = work.data();
  pass.mark_placed();

  StreamKernels kernels(step.mac, step.cipher, call, !step.mac_first);
  crypto::sweep(in_place ? BytesView(dst, n) : src.first(n), dst,
                kernels.stages);
  if (kernels.mac) {
    if (kernels.cipher && step.mac_first) kernels.cipher->apply(tag);
    step.mac->verify(*kernels.mac, tag, call);
  }
}

std::vector<CapabilityDescriptor> CapabilityChain::descriptors() const {
  std::vector<CapabilityDescriptor> out;
  out.reserve(capabilities_.size());
  for (const auto& capability : capabilities_) {
    out.push_back(capability->descriptor());
  }
  return out;
}

std::vector<CapabilityDescriptor> CapabilityChain::server_descriptors() const {
  std::vector<CapabilityDescriptor> out;
  out.reserve(capabilities_.size());
  for (const auto& capability : capabilities_) {
    out.push_back(capability->server_descriptor());
  }
  return out;
}

std::string CapabilityChain::describe() const {
  std::string out;
  for (const auto& capability : capabilities_) {
    if (!out.empty()) out += ",";
    out += capability->kind();
  }
  return out;
}

}  // namespace ohpx::cap
