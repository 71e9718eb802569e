#pragma once

#include <memory>

#include "vgr/net/packet.hpp"

namespace vgr::security {

/// One immutable encoding of a packet's signed portion (common header +
/// extended header + payload — the exact bytes a signature covers).
///
/// Built once per logical message — at `SecuredMessage::sign()` time or on
/// first use — and then shared by reference: every copy of the message, every
/// receiver of the same frame, and every downstream hop that only rewrites
/// the (unsigned) Basic Header reuses this object instead of re-serializing
/// the packet. The object's identity is what the TrustStore's last verdict
/// matches on: every receiver of one frame verifies the same object.
struct SignedPortion {
  net::Bytes bytes;
};

using SignedPortionPtr = std::shared_ptr<const SignedPortion>;

}  // namespace vgr::security
