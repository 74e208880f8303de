// Umbrella header for the Open HPC++ reproduction library.
//
// Layering (bottom → top):
//   common    — errors, logging, clocks, RNG, bytes
//   wire      — XDR-like encoding, frames
//   netsim    — machine/LAN topology, link models, load
//   crypto    — stream cipher, SipHash MAC, keys
//   compress  — RLE / LZ77 codecs
//   transport — in-process dispatch (optionally over a modeled link), TCP
//   cap       — capabilities, chains, registry (paper §4)
//   proto     — proto-objects, proto-pools, glue protocol, selection (§3)
//   orb       — object references, contexts, servants, global pointers (§2)
//   runtime   — World, migration, load balancing (§4.3)
#pragma once

#include "ohpx/common/bytes.hpp"
#include "ohpx/common/clock.hpp"
#include "ohpx/common/error.hpp"
#include "ohpx/common/log.hpp"
#include "ohpx/common/rng.hpp"
#include "ohpx/common/thread_pool.hpp"

#include "ohpx/trace/export.hpp"
#include "ohpx/trace/trace.hpp"

#include "ohpx/wire/buffer.hpp"
#include "ohpx/wire/crc.hpp"
#include "ohpx/wire/decoder.hpp"
#include "ohpx/wire/encoder.hpp"
#include "ohpx/wire/message.hpp"
#include "ohpx/wire/serialize.hpp"

#include "ohpx/netsim/topology.hpp"

#include "ohpx/crypto/key.hpp"
#include "ohpx/crypto/mac.hpp"
#include "ohpx/crypto/stream_cipher.hpp"

#include "ohpx/compress/codec.hpp"

#include "ohpx/transport/inproc.hpp"
#include "ohpx/transport/tcp.hpp"

#include "ohpx/capability/builtin/audit.hpp"
#include "ohpx/capability/builtin/authentication.hpp"
#include "ohpx/capability/builtin/checksum.hpp"
#include "ohpx/capability/builtin/delegation.hpp"
#include "ohpx/capability/builtin/compression.hpp"
#include "ohpx/capability/builtin/encryption.hpp"
#include "ohpx/capability/builtin/fault.hpp"
#include "ohpx/capability/builtin/lease.hpp"
#include "ohpx/capability/builtin/padding.hpp"
#include "ohpx/capability/builtin/quota.hpp"
#include "ohpx/capability/builtin/ratelimit.hpp"
#include "ohpx/capability/capability.hpp"
#include "ohpx/capability/chain.hpp"
#include "ohpx/capability/registry.hpp"
#include "ohpx/capability/scope.hpp"

#include "ohpx/protocol/entry.hpp"
#include "ohpx/protocol/glue.hpp"
#include "ohpx/protocol/glue_wire.hpp"
#include "ohpx/protocol/nexus_sim.hpp"
#include "ohpx/protocol/pool.hpp"
#include "ohpx/protocol/protocol.hpp"
#include "ohpx/protocol/registry.hpp"
#include "ohpx/protocol/relay.hpp"
#include "ohpx/protocol/select.hpp"
#include "ohpx/protocol/shm.hpp"
#include "ohpx/protocol/target.hpp"
#include "ohpx/protocol/tcp_proto.hpp"

#include "ohpx/hpcxx/group_pointer.hpp"

#include "ohpx/metrics/metrics.hpp"

#include "ohpx/naming/name_service.hpp"

#include "ohpx/orb/context.hpp"
#include "ohpx/orb/global_pointer.hpp"
#include "ohpx/orb/invocation.hpp"
#include "ohpx/orb/location.hpp"
#include "ohpx/orb/object_ref.hpp"
#include "ohpx/orb/ref_builder.hpp"
#include "ohpx/orb/servant.hpp"
#include "ohpx/orb/stub.hpp"

#include "ohpx/runtime/balancer.hpp"
#include "ohpx/runtime/migration.hpp"
#include "ohpx/runtime/world.hpp"
