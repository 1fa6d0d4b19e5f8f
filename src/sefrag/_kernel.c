/* Native per-chunk kernel and KDF for sefrag, over libcrypto's SHA-256.
 *
 * Plain C with no Python headers; sefrag._native builds it on first use
 * (cc -O2 -shared -fPIC ... -lcrypto) and calls it through ctypes.  Each
 * function is the byte-for-byte equivalent of a pure-Python path in
 * sefrag.core or sefrag.container, which stays the reference:
 *
 *   sefrag_protect  one chunk: gather -> keystream -> XOR
 *   sefrag_recover  one chunk: keystream -> XOR -> scatter
 *   sefrag_derive   the whole derive_key loop
 *
 * The caller checks every buffer length before the call.  Each function
 * returns 0, or -1 when a libcrypto call fails.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <openssl/sha.h>

#define UNIT_LEN 32
#define SUB_LEN 4
#define REMAINDER_LEN (UNIT_LEN - SUB_LEN)
#define KEY_LEN 16
#define MESSAGE_LEN (SUB_LEN + KEY_LEN + 8)

/* SHA-256(picked || key || LE64(index)) of one unit; the key is already
 * in message[SUB_LEN..]. */
static int unit_keystream(SHA256_CTX *ctx, unsigned char *message, const unsigned char *picked,
                          uint64_t index, unsigned char *digest)
{
    memcpy(message, picked, SUB_LEN);
    for (int b = 0; b < 8; b++)
        message[SUB_LEN + KEY_LEN + b] = (unsigned char)(index >> (8 * b));
    return SHA256_Init(ctx) && SHA256_Update(ctx, message, MESSAGE_LEN) && SHA256_Final(digest, ctx);
}

/* units: count * 32 bytes in; pub: count * 28 protected remainder bytes
 * out; picked: count * 4 selected sub-fragment bytes out.  Unit i has
 * index first + i and selector selectors[i] & 7. */
int sefrag_protect(const unsigned char *units, const unsigned char *selectors, size_t count,
                   const unsigned char *key, uint64_t first, unsigned char *pub, unsigned char *picked)
{
    SHA256_CTX ctx;
    unsigned char message[MESSAGE_LEN], digest[SHA256_DIGEST_LENGTH];
    memcpy(message + SUB_LEN, key, KEY_LEN);
    for (size_t i = 0; i < count; i++) {
        const unsigned char *unit = units + UNIT_LEN * i;
        unsigned char *out = pub + REMAINDER_LEN * i;
        unsigned sel = selectors[i] & 7;
        memcpy(picked + SUB_LEN * i, unit + SUB_LEN * sel, SUB_LEN);
        if (!unit_keystream(&ctx, message, picked + SUB_LEN * i, first + i, digest))
            return -1;
        /* Remainder bytes are the unit's bytes before and after the pick. */
        size_t cut = SUB_LEN * sel;
        for (size_t b = 0; b < cut; b++)
            out[b] = unit[b] ^ digest[b];
        for (size_t b = cut; b < REMAINDER_LEN; b++)
            out[b] = unit[b + SUB_LEN] ^ digest[b];
    }
    return 0;
}

/* Inverse of sefrag_protect: pub (count * 28) and picked (count * 4) in,
 * units (count * 32) out. */
int sefrag_recover(const unsigned char *pub, const unsigned char *picked, const unsigned char *selectors,
                   size_t count, const unsigned char *key, uint64_t first, unsigned char *units)
{
    SHA256_CTX ctx;
    unsigned char message[MESSAGE_LEN], digest[SHA256_DIGEST_LENGTH];
    memcpy(message + SUB_LEN, key, KEY_LEN);
    for (size_t i = 0; i < count; i++) {
        const unsigned char *in = pub + REMAINDER_LEN * i;
        unsigned char *unit = units + UNIT_LEN * i;
        unsigned sel = selectors[i] & 7;
        if (!unit_keystream(&ctx, message, picked + SUB_LEN * i, first + i, digest))
            return -1;
        size_t cut = SUB_LEN * sel;
        for (size_t b = 0; b < cut; b++)
            unit[b] = in[b] ^ digest[b];
        memcpy(unit + cut, picked + SUB_LEN * i, SUB_LEN);
        for (size_t b = cut; b < REMAINDER_LEN; b++)
            unit[b + SUB_LEN] = in[b] ^ digest[b];
    }
    return 0;
}

/* x <- SHA-256(x || suffix), iterations times from an empty x; the
 * suffix is passphrase || salt and may hold NUL bytes.  out: 32 bytes. */
int sefrag_derive(const unsigned char *suffix, size_t suffix_len, uint64_t iterations, unsigned char *out)
{
    SHA256_CTX ctx;
    unsigned char x[SHA256_DIGEST_LENGTH];
    size_t x_len = 0;
    for (uint64_t i = 0; i < iterations; i++) {
        if (!(SHA256_Init(&ctx) && SHA256_Update(&ctx, x, x_len) && SHA256_Update(&ctx, suffix, suffix_len)
              && SHA256_Final(x, &ctx)))
            return -1;
        x_len = sizeof x;
    }
    memcpy(out, x, x_len);
    return 0;
}
