#include "ohpx/naming/bootstrap.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "ohpx/common/error.hpp"
#include "ohpx/common/parse.hpp"
#include "ohpx/naming/name_service.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"

namespace ohpx::naming {
namespace {

// Multi-ref container files start with this tag; anything else is read as
// one raw serialized reference (the PR 9 single-ref form).
constexpr char kRefsMagic[8] = {'O', 'H', 'P', 'X', 'R', 'E', 'F', 'S'};

/// One read attempt: nullopt when the file is missing or empty — the two
/// states a reader racing `write_bootstrap_file`'s atomic rename can see.
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string raw = buffer.str();
  if (raw.empty()) return std::nullopt;
  return raw;
}

/// Reads `path`, retrying missing/empty with a bounded backoff (a daemon
/// mid-startup renames the file into place any moment now).  Garbled
/// *content* is never retried: the rename is atomic, so a readable file
/// is complete.  Nor is a directory: no rename turns one into a file, and
/// it would read as empty.
std::string slurp_with_retry(const std::string& path) {
  std::error_code error;
  if (std::filesystem::is_directory(path, error)) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "bootstrap file '" + path + "' is a directory");
  }
  constexpr int kAttempts = 6;
  for (int attempt = 0;; ++attempt) {
    if (auto raw = slurp(path)) return std::move(*raw);
    if (attempt + 1 >= kAttempts) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  throw ObjectError(ErrorCode::bad_object_ref,
                    "cannot read bootstrap file '" + path + "'");
}

std::vector<orb::ObjectRef> parse_ref_blob(const std::string& path,
                                           const std::string& raw) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(raw.data());
  try {
    if (raw.size() >= sizeof(kRefsMagic) &&
        std::equal(kRefsMagic, kRefsMagic + sizeof(kRefsMagic), raw.data())) {
      wire::Decoder dec(
          BytesView(data + sizeof(kRefsMagic), raw.size() - sizeof(kRefsMagic)));
      const std::uint32_t count = dec.get_u32();
      std::vector<orb::ObjectRef> refs;
      // The count is the file's word: reserve only what the bytes left
      // can hold, each reference taking at least its 4-byte length.
      refs.reserve(std::min<std::size_t>(count, dec.remaining() / 4));
      for (std::uint32_t i = 0; i < count; ++i) {
        refs.push_back(orb::ObjectRef::from_bytes(dec.get_bytes_view()));
      }
      if (refs.empty()) {
        throw ObjectError(ErrorCode::bad_object_ref,
                          "bootstrap file '" + path + "' holds no references");
      }
      return refs;
    }
    return {orb::ObjectRef::from_bytes(BytesView(data, raw.size()))};
  } catch (const ObjectError&) {
    throw;
  } catch (const Error&) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "bootstrap file '" + path +
                          "' does not hold a serialized reference");
  }
}

}  // namespace

orb::ObjectRef make_bootstrap_ref(const std::string& host,
                                  std::uint16_t port) {
  proto::ServerAddress address;
  address.context_id = 0;
  address.machine = netsim::kInvalidMachine;  // foreign: WAN-model placement
  address.tcp_host = host;
  address.tcp_port = port;
  proto::ProtoTable table;
  table.add(proto::ProtocolEntry{"tcp", {}});
  return orb::ObjectRef(kWellKnownNameServiceId,
                        std::string(NameServiceServant::kTypeName), address,
                        std::move(table));
}

orb::ObjectRef bootstrap_from_uri(const std::string& uri) {
  return bootstrap_refs_from_uri(uri).front();
}

std::vector<orb::ObjectRef> bootstrap_refs_from_uri(const std::string& uri) {
  std::vector<std::string> specs;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = uri.find(',', begin);
    specs.push_back(uri.substr(begin, comma - begin));  // npos-safe
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  std::vector<orb::ObjectRef> refs;
  for (const std::string& spec : specs) {
    if (spec.empty()) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "bootstrap URI '" + uri + "' has an empty endpoint");
    }
    if (spec.rfind("file:", 0) == 0) {
      const auto from_file = read_bootstrap_refs(spec.substr(5));
      refs.insert(refs.end(), from_file.begin(), from_file.end());
      continue;
    }
    if (spec.find('/') != std::string::npos ||
        (spec.size() > 4 && spec.compare(spec.size() - 4, 4, ".ref") == 0)) {
      const auto from_file = read_bootstrap_refs(spec);
      refs.insert(refs.end(), from_file.begin(), from_file.end());
      continue;
    }
    const auto address = parse_host_port(spec);
    if (!address || address->host.empty()) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "bootstrap URI '" + uri +
                            "' is neither host:port (port 1-65535) nor a "
                            "reference file");
    }
    refs.push_back(make_bootstrap_ref(address->host, address->port));
  }
  if (refs.empty()) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "bootstrap URI '" + uri + "' names no endpoints");
  }
  return refs;
}

namespace {

void write_atomically(const std::string& path, BytesView raw) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "cannot write bootstrap file '" + tmp + "'");
    }
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
    if (!out.good()) {
      throw ObjectError(ErrorCode::bad_object_ref,
                        "short write to bootstrap file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ObjectError(ErrorCode::bad_object_ref,
                      "cannot rename bootstrap file into '" + path + "'");
  }
}

}  // namespace

void write_bootstrap_file(const std::string& path,
                          const orb::ObjectRef& ref) {
  write_atomically(path, BytesView(ref.to_bytes()));
}

void write_bootstrap_file(const std::string& path,
                          const std::vector<orb::ObjectRef>& refs) {
  if (refs.empty()) {
    throw ObjectError(ErrorCode::bad_object_ref,
                      "refusing to write an empty bootstrap file");
  }
  wire::Buffer body;
  wire::Encoder enc(body);
  enc.put_u32(static_cast<std::uint32_t>(refs.size()));
  for (const orb::ObjectRef& ref : refs) enc.put_bytes(ref.to_bytes());
  Bytes raw(kRefsMagic, kRefsMagic + sizeof(kRefsMagic));
  raw.insert(raw.end(), body.view().begin(), body.view().end());
  write_atomically(path, BytesView(raw));
}

orb::ObjectRef read_bootstrap_file(const std::string& path) {
  return read_bootstrap_refs(path).front();
}

std::vector<orb::ObjectRef> read_bootstrap_refs(const std::string& path) {
  return parse_ref_blob(path, slurp_with_retry(path));
}

}  // namespace ohpx::naming
