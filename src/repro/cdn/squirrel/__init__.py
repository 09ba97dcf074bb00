"""Squirrel: the decentralized P2P web cache baseline (PODC 2002).

The paper compares Flower-CDN against Squirrel's *directory* scheme, which
"shares some similarities with Flower-CDN wrt. the directory structure"
(section 6.1): every peer joins one global Chord ring; the *home node* of an
object is the live node whose identifier succeeds the hash of the object's
URL; the home node keeps a small directory of recent downloaders (delegates)
and redirects requests to a random one.

The two weaknesses the paper exploits are faithfully present:

- every query "has to navigate through the whole DHT" -- a full Chord
  lookup at 10-500 ms per hop, hence second-scale lookup latencies;
- "the directory information is abruptly lost at the failure of its storing
  peer" -- directories live in the home node's memory and die with it, and
  the successor that inherits the key range starts empty.
"""
