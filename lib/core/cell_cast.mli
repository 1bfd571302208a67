(** Pipelined broadcast of each net node's label down its Voronoi cell.

    After the super-source Bellman–Ford, every node's forest parent has
    the same nearest net node, so each net node roots a tree spanning
    exactly its cell. The net node streams its serialized label
    ({!Label.to_words}) two words per round per child edge; relays
    forward chunks as they arrive and record them. This realises the
    "[u] stores [L(u')]" step of the CDG sketch with honest CONGEST
    accounting — [O(max_cell_depth + max_label_words/2)] rounds and
    [O(n · label_words)] total words — and the content genuinely
    travels over the wire (the received stream is what the caller
    deserializes). *)

val run :
  ?pool:Ds_parallel.Pool.t -> Ds_graph.Graph.t ->
  forest:Ds_congest.Super_bf.result -> payload:(int -> (int * int) array) ->
  (int * int) array array * Ds_congest.Metrics.t
(** [run g ~forest ~payload] streams [payload w] from every forest
    root [w]. Returns per node the words it received from its cell
    root (roots get their own payload verbatim, with zero cost). *)
