"""The paper's §6.1–§6.3 workloads: the Table 1 microbenchmarks, bild,
HTTP, FastHTTP, the wiki."""
