/* Native per-chunk kernel, KDF and AES-128-CBC for sefrag, over libcrypto.
 *
 * Plain C with no Python headers; sefrag._native builds it on first use
 * (cc -O2 -shared -fPIC ... -lcrypto) and calls it through ctypes.  Each
 * function is the byte-for-byte equivalent of a pure-Python function,
 * which stays the reference:
 *
 *   sefrag_protect  core._protect_chunk: one chunk, gather -> keystream -> XOR
 *   sefrag_recover  core._recover_chunk: one chunk, keystream -> XOR -> scatter
 *   sefrag_derive   core._derive: the whole derive_key loop
 *   sefrag_cbc      container._cbc: AES-128-CBC over whole blocks, no padding
 *
 * A chunk is a pure function of its bytes, the key and the index of its
 * first unit.  Unit u's selector is byte u % 32 of selector block u / 32,
 * SHA-256(key || "FRAG-SEL" || LE64(u / 32)), read & 7; the chunk
 * functions hash those blocks themselves, each once per call.  Both the
 * selector block's message (32 bytes) and a unit's keystream message
 * (28 bytes) fit one 64-byte SHA-256 block, so each of those hashes is
 * one compression of a block padded in place.
 *
 * The caller checks every buffer length before the call.  Each function
 * returns 0, or -1 when a libcrypto call fails.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <openssl/evp.h>
#include <openssl/sha.h>

#define UNIT_LEN 32
#define SUB_LEN 4
#define REMAINDER_LEN (UNIT_LEN - SUB_LEN)
#define KEY_LEN 16
#define MESSAGE_LEN (SUB_LEN + KEY_LEN + 8)
#define DOMAIN "FRAG-SEL"
#define DOMAIN_LEN 8
#define SELECTOR_MESSAGE_LEN (KEY_LEN + DOMAIN_LEN + 8)
#define SELECTORS_PER_BLOCK SHA256_DIGEST_LENGTH

static void le64(unsigned char *out, uint64_t value)
{
    for (int b = 0; b < 8; b++)
        out[b] = (unsigned char)(value >> (8 * b));
}

/* FIPS 180-4 padding of the len < 56 message bytes at the start of the
 * zeroed block: the 0x80 byte, then the bit length in the last bytes. */
static void pad(unsigned char block[SHA256_CBLOCK], size_t len)
{
    block[len] = 0x80;
    block[SHA256_CBLOCK - 2] = (unsigned char)((8 * len) >> 8);
    block[SHA256_CBLOCK - 1] = (unsigned char)(8 * len);
}

/* SHA-256 of a padded one-block message: one compression from the
 * initial state, written out big-endian. */
static int one_block(const unsigned char block[SHA256_CBLOCK], unsigned char *digest)
{
    SHA256_CTX ctx;
    if (!SHA256_Init(&ctx))
        return 0;
    SHA256_Transform(&ctx, block);
    for (int w = 0; w < 8; w++)
        for (int b = 0; b < 4; b++)
            digest[4 * w + b] = (unsigned char)(ctx.h[w] >> (24 - 8 * b));
    return 1;
}

/* The selector of unit u; block holds selector block u / 32 once this
 * has run for the first unit of a call or of a block. */
static int selector(const unsigned char *key, uint64_t u, int first_of_call, unsigned char *block)
{
    if (first_of_call || u % SELECTORS_PER_BLOCK == 0) {
        unsigned char message[SHA256_CBLOCK] = {0};
        memcpy(message, key, KEY_LEN);
        memcpy(message + KEY_LEN, DOMAIN, DOMAIN_LEN);
        le64(message + KEY_LEN + DOMAIN_LEN, u / SELECTORS_PER_BLOCK);
        pad(message, SELECTOR_MESSAGE_LEN);
        if (!one_block(message, block))
            return -1;
    }
    return block[u % SELECTORS_PER_BLOCK] & 7;
}

/* SHA-256(picked || key || LE64(index)) of one unit; message is padded
 * and already holds the key in message[SUB_LEN..]. */
static int unit_keystream(unsigned char *message, const unsigned char *picked, uint64_t index,
                          unsigned char *digest)
{
    memcpy(message, picked, SUB_LEN);
    le64(message + SUB_LEN + KEY_LEN, index);
    return one_block(message, digest);
}

/* units: count * 32 bytes in; pub: count * 28 protected remainder bytes
 * out; picked: count * 4 selected sub-fragment bytes out.  Unit i has
 * index first + i. */
int sefrag_protect(const unsigned char *units, size_t count, const unsigned char *key, uint64_t first,
                   unsigned char *pub, unsigned char *picked)
{
    unsigned char message[SHA256_CBLOCK] = {0}, digest[SHA256_DIGEST_LENGTH], block[SELECTORS_PER_BLOCK];
    memcpy(message + SUB_LEN, key, KEY_LEN);
    pad(message, MESSAGE_LEN);
    for (size_t i = 0; i < count; i++) {
        const unsigned char *unit = units + UNIT_LEN * i;
        unsigned char *out = pub + REMAINDER_LEN * i;
        int sel = selector(key, first + i, i == 0, block);
        if (sel < 0)
            return -1;
        memcpy(picked + SUB_LEN * i, unit + SUB_LEN * sel, SUB_LEN);
        if (!unit_keystream(message, picked + SUB_LEN * i, first + i, digest))
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
int sefrag_recover(const unsigned char *pub, const unsigned char *picked, size_t count, const unsigned char *key,
                   uint64_t first, unsigned char *units)
{
    unsigned char message[SHA256_CBLOCK] = {0}, digest[SHA256_DIGEST_LENGTH], block[SELECTORS_PER_BLOCK];
    memcpy(message + SUB_LEN, key, KEY_LEN);
    pad(message, MESSAGE_LEN);
    for (size_t i = 0; i < count; i++) {
        const unsigned char *in = pub + REMAINDER_LEN * i;
        unsigned char *unit = units + UNIT_LEN * i;
        int sel = selector(key, first + i, i == 0, block);
        if (sel < 0 || !unit_keystream(message, picked + SUB_LEN * i, first + i, digest))
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

/* AES-128-CBC over len bytes, a whole number of blocks that fits an int,
 * with padding off: encrypt when encrypt is 1, decrypt when it is 0.
 * key and iv: 16 bytes each; out: len bytes. */
int sefrag_cbc(const unsigned char *key, const unsigned char *iv, const unsigned char *in, size_t len, int encrypt,
               unsigned char *out)
{
    EVP_CIPHER_CTX *ctx = EVP_CIPHER_CTX_new();
    int n = 0;
    int ok = ctx && EVP_CipherInit_ex(ctx, EVP_aes_128_cbc(), NULL, key, iv, encrypt)
             && EVP_CIPHER_CTX_set_padding(ctx, 0) && EVP_CipherUpdate(ctx, out, &n, in, (int)len)
             && (size_t)n == len;
    EVP_CIPHER_CTX_free(ctx);
    return ok ? 0 : -1;
}
