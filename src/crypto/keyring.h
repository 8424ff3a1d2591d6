// Key management for the signing chain. Models the kernel's trusted keyring
// bootstrapped at "secure boot": the toolchain holds a SigningKey, the
// kernel holds a Keyring of trusted key ids. Signature = HMAC-SHA256 over
// the canonical artifact bytes under the named key.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/crypto/hmac.h"
#include "src/xbase/status.h"
#include "src/xbase/types.h"

namespace crypto {

struct Signature {
  std::string key_id;
  Digest256 mac = {};
};

// Held by the trusted userspace toolchain.
class SigningKey {
 public:
  SigningKey(std::string key_id, std::vector<xbase::u8> secret)
      : key_id_(std::move(key_id)), secret_(std::move(secret)) {}

  // Deterministically derives a key from a passphrase; convenient for tests
  // and examples that need matching toolchain/kernel keys.
  static SigningKey FromPassphrase(std::string key_id,
                                   const std::string& passphrase);

  const std::string& key_id() const { return key_id_; }

  Signature Sign(std::span<const xbase::u8> message) const;

  // Exposes the raw secret only for enrolling into a Keyring.
  std::span<const xbase::u8> secret() const { return secret_; }

 private:
  std::string key_id_;
  std::vector<xbase::u8> secret_;
};

// Held by the simulated kernel. Keys are enrolled at boot; verification
// refuses unknown key ids and mismatched MACs without distinguishing the two
// beyond the status message.
class Keyring {
 public:
  xbase::Status Enroll(const SigningKey& key);
  xbase::Status EnrollRaw(std::string key_id, std::vector<xbase::u8> secret);

  // Locks the keyring: no further enrollment (models end of secure boot).
  void Seal() { sealed_ = true; }

  xbase::Status Verify(std::span<const xbase::u8> message,
                       const Signature& signature) const;

  xbase::usize size() const { return keys_.size(); }

 private:
  std::map<std::string, std::vector<xbase::u8>> keys_;
  bool sealed_ = false;
};

}  // namespace crypto
