"""Selective protection of files by fragmentation and dispersion.

Content is processed in 32-byte units: a keyed selector picks one
4-byte sub-fragment per unit for the private stream, and the other 28
bytes travel in a public fragment XORed with a hash keystream derived
from the selected bytes, the key, and the unit index. The private
stream (selected bytes, tail, integrity digest) is AES-protected and
stays on trusted storage; the public fragment goes to an untrusted
backend.  Without the private stream its keystreams cannot be recomputed
directly, but whoever also holds the key recovers each unit by trying
the 2^32 values of its selected sub-fragment, so the key is as secret
as the private stream.
"""
