#include "ohpx/naming/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "ohpx/common/endian.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/metrics/metric_names.hpp"
#include "ohpx/wire/serialize.hpp"

namespace ohpx::naming {
namespace {

// Bumped whenever the record or the frame layout changes; there is no
// reader for an older version.
constexpr std::uint8_t kMagic[8] = {'O', 'H', 'P', 'X', 'J', 'N', 'L', '2'};

std::uint32_t fnv1a(BytesView data) noexcept {
  std::uint32_t hash = 2166136261u;
  for (const std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 16777619u;
  }
  return hash;
}

/// One framed record as raw file bytes: length | checksum | payload.
std::string frame(const NameSnapshot& record) {
  const wire::Buffer payload = wire::encode_value(record);
  std::uint8_t head[8];
  store_le(head, static_cast<std::uint32_t>(payload.size()));
  store_le(head + 4, fnv1a(payload.view()));
  std::string out;
  out.reserve(sizeof head + payload.size());
  out.append(reinterpret_cast<const char*>(head), sizeof head);
  out.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  return out;
}

}  // namespace

Journal::Journal(const std::string& path) : path_(path) {
  records_ = metrics::MetricsRegistry::global().counter_handle(
      metrics::names::kNamingJournalRecords);
  bool fresh = true;
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    fresh = !probe || probe.tellg() <= 0;
  }
  sync::LockGuard lock(mutex_);
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "cannot open journal '" + path + "' for append");
  }
  if (fresh) {
    out_.write(reinterpret_cast<const char*>(kMagic), sizeof(kMagic));
    out_.flush();
  }
}

void Journal::append(const NameSnapshot& record) {
  if (!enabled()) return;
  const std::string framed = frame(record);
  sync::LockGuard lock(mutex_);
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out_.flush();
  ++written_;
  records_->fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Journal::records_written() const {
  sync::LockGuard lock(mutex_);
  return written_;
}

std::vector<NameSnapshot> Journal::recover(const std::string& path) {
  std::vector<NameSnapshot> records;
  std::ifstream in(path, std::ios::binary);
  if (!in) return records;  // first boot: nothing journaled yet
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const auto* data = reinterpret_cast<const std::uint8_t*>(raw.data());
  const std::size_t size = raw.size();
  if (size == 0) return records;
  if (size < sizeof(kMagic) ||
      !std::equal(kMagic, kMagic + sizeof(kMagic), data)) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "'" + path + "' is not an OHPXJNL2 journal");
  }
  std::size_t pos = sizeof(kMagic);
  while (pos + 8 <= size) {
    const auto length = load_le<std::uint32_t>(data + pos);
    const auto checksum = load_le<std::uint32_t>(data + pos + 4);
    if (pos + 8 + length > size) break;  // torn tail: frame never finished
    const BytesView payload(data + pos + 8, length);
    if (fnv1a(payload) != checksum) break;  // corrupt tail
    try {
      records.push_back(wire::decode_value<NameSnapshot>(payload));
    } catch (const Error&) {
      break;  // checksummed but undecodable: stop at the damage
    }
    pos += 8 + length;
  }
  return records;
}

void Journal::compact(const std::string& path,
                      const std::vector<NameSnapshot>& records) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "cannot write journal '" + tmp + "'");
    }
    out.write(reinterpret_cast<const char*>(kMagic), sizeof(kMagic));
    for (const NameSnapshot& record : records) {
      const std::string framed = frame(record);
      out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
    }
    if (!out.good()) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "short write compacting journal '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ObjectError(ErrorCode::bad_object_ref,
                      "cannot rename compacted journal into '" + path + "'");
  }
}

}  // namespace ohpx::naming
